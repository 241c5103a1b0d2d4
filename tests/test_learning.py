import json
import math
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from promptshap.errors import (
    ConditioningError,
    ConsistencyError,
    PreconditionError,
    ShapeError,
    UndefinedCorrelationError,
)
from promptshap import learning
from promptshap.learning import (
    EmbeddingMatrix,
    RegressorKind,
    RegressorSpec,
    TrainedRegressor,
    fit_regressor,
    holdout_eval,
    load_embeddings,
    load_model,
    pearson,
    predict_sv,
    save_model,
)
from promptshap.rng import SplitMix64

from conftest import encoded_array, model_doc, save_embeddings

LINEAR = RegressorSpec(kind=RegressorKind.LINEAR)
RIDGE = RegressorSpec(kind=RegressorKind.RIDGE)
GP = RegressorSpec(kind=RegressorKind.GAUSSIAN_PROCESS)


def uniform_matrix(rows, cols, seed, lo=-1.0, hi=1.0):
    rng = SplitMix64(seed)
    span = hi - lo
    return np.array([[lo + span * rng.uniform() for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# ordinary least squares


def test_linear_recovers_noiseless_affine():
    X = uniform_matrix(30, 4, seed=1)
    w = np.array([0.5, -1.25, 2.0, 0.75])
    y = X @ w + 0.3
    model = fit_regressor(X, y, LINEAR)
    assert np.allclose(model.weights, w, atol=1e-8)
    assert abs(model.intercept - 0.3) < 1e-8


def test_linear_constant_targets():
    X = uniform_matrix(20, 3, seed=2)
    model = fit_regressor(X, np.full(20, 0.7), LINEAR)
    assert np.allclose(model.weights, 0.0, atol=1e-10)
    assert abs(model.intercept - 0.7) < 1e-10


def test_linear_with_noise_matches_normal_equations():
    rng = np.random.default_rng(8)
    X = uniform_matrix(200, 8, seed=3)
    w = np.array([0.4, -0.2, 1.1, 0.0, -0.9, 0.3, 0.05, -0.5])
    clean = X @ w + 0.1
    y = clean + 0.01 * rng.standard_normal(200)
    model = fit_regressor(X, y, LINEAR)
    predictions = predict_sv(model, X)
    assert float(np.sqrt(np.mean((predictions - clean) ** 2))) <= 0.02
    # independent normal-equations solve of the same problem
    A = np.column_stack([X, np.ones(200)])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    assert np.allclose(model.weights, coef[:-1], atol=1e-8)
    assert abs(model.intercept - coef[-1]) < 1e-8


def test_linear_needs_two_samples():
    with pytest.raises(PreconditionError, match="at least 2 sample"):
        fit_regressor([[1.0]], [0.5], LINEAR)
    with pytest.raises(ShapeError):
        fit_regressor([[1.0], [2.0]], [0.5], LINEAR)


# ---------------------------------------------------------------------------
# ridge


def test_ridge_zero_lambda_equals_ols():
    X = uniform_matrix(40, 5, seed=4)
    y = X @ np.array([1.0, -0.5, 0.25, 2.0, -1.5]) + 0.2
    ols = fit_regressor(X, y, LINEAR)
    for standardize in (False, True):
        ridge = fit_regressor(X, y, replace(RIDGE, ridge_lambda=0.0, standardize=standardize))
        assert np.allclose(ridge.weights, ols.weights, atol=1e-8)
        assert abs(ridge.intercept - ols.intercept) < 1e-8


def test_ridge_huge_lambda_predicts_the_mean():
    X = uniform_matrix(25, 3, seed=5)
    y = X @ np.array([1.0, 2.0, -1.0]) + 0.4
    model = fit_regressor(X, y, replace(RIDGE, ridge_lambda=1e12))
    assert np.allclose(predict_sv(model, X), y.mean(), atol=1e-4)


def test_ridge_hand_solved_fixture():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([0.5, -0.5, 0.3, -0.3])
    model = fit_regressor(X, y, replace(RIDGE, ridge_lambda=1.0, standardize=False))
    # centered system is diag(2,2) + I, so w = (1/3, 1/5), b = 0
    assert np.allclose(model.weights, [1 / 3, 1 / 5], atol=1e-12)
    assert abs(model.intercept) < 1e-12
    assert abs(predict_sv(model, [[1.0, 1.0]])[0] - 8 / 15) < 1e-12


def test_ridge_is_continuous_in_lambda():
    X = uniform_matrix(30, 4, seed=6)
    y = X @ np.array([0.3, -0.7, 1.2, 0.1])
    p0 = predict_sv(fit_regressor(X, y, replace(RIDGE, ridge_lambda=0.0)), X)
    p1 = predict_sv(fit_regressor(X, y, replace(RIDGE, ridge_lambda=1e-9)), X)
    assert float(np.max(np.abs(p1 - p0))) < 1e-6


def test_ridge_rejects_negative_lambda():
    with pytest.raises(PreconditionError, match="ridge lambda must be a finite real >= 0"):
        fit_regressor([[1.0], [2.0]], [0.1, 0.2], replace(RIDGE, ridge_lambda=-0.5))


@pytest.mark.parametrize("ridge_lambda", [math.nan, math.inf], ids=["nan", "inf"])
def test_ridge_rejects_a_non_finite_lambda(ridge_lambda):
    with pytest.raises(PreconditionError, match="ridge lambda must be a finite real"):
        fit_regressor([[1.0], [2.0]], [0.1, 0.2], replace(RIDGE, ridge_lambda=ridge_lambda))


def test_ridge_accepts_single_sample():
    model = fit_regressor([[2.0]], [0.5], RIDGE)
    assert abs(predict_sv(model, [[2.0]])[0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# gaussian process


def test_gp_interpolates_noiseless_data():
    X = uniform_matrix(15, 2, seed=7)
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    model = fit_regressor(X, y, replace(GP, gp_noise_var=0.0))
    assert np.allclose(predict_sv(model, X), y, atol=1e-6)


def test_gp_reverts_to_mean_far_from_data():
    X = uniform_matrix(10, 2, seed=8, lo=-0.5, hi=0.5)
    y = X @ np.array([1.0, -1.0]) + 0.2
    model = fit_regressor(X, y, replace(GP, gp_length_scale=1.0, standardize=False))
    far = predict_sv(model, [[100.0, 100.0]])[0]
    assert abs(far - y.mean()) < 1e-3


def test_gp_single_point_returns_its_target():
    model = fit_regressor([[0.0]], [0.5], GP)
    assert predict_sv(model, [[0.0]])[0] == 0.5


def test_gp_conditioning_failure_is_reported():
    with pytest.raises(ConditioningError):
        fit_regressor([[0.0], [0.0]], [0.0, 1.0], replace(
            GP, gp_signal_var=1e20, gp_noise_var=0.0, standardize=False))


def test_a_set_length_scale_is_used_instead_of_the_median():
    model = fit_regressor([[0.0], [0.0], [1.0]], [0.0, 1.0, 0.5], replace(GP, gp_length_scale=0.7))
    assert model.length_scale == 0.7


def test_a_gp_fit_escalates_its_jitter_until_the_kernel_factors():
    # duplicate rows make the unit-variance kernel singular; a jitter of 1e-20
    # vanishes next to 1, so the fit multiplies it by 10 until it counts
    spec = replace(GP, gp_signal_var=1.0, gp_noise_var=0.0, gp_jitter=1e-20)
    model = fit_regressor([[0.0], [0.0], [1.0]], [0.0, 1.0, 0.5], spec)
    assert 1e-20 < model.jitter_used < 1e-4


def test_gp_parameter_validation():
    X, y = [[0.0], [1.0]], [0.0, 1.0]
    with pytest.raises(PreconditionError, match="noise variance must be a finite real >= 0"):
        fit_regressor(X, y, replace(GP, gp_noise_var=-1.0))
    with pytest.raises(PreconditionError, match="jitter must be finite and positive"):
        fit_regressor(X, y, replace(GP, gp_jitter=0.0))
    with pytest.raises(PreconditionError, match="length scale must be finite and positive"):
        fit_regressor(X, y, replace(GP, gp_length_scale=-1.0))


def test_gp_parameters_are_checked_before_the_distances(monkeypatch):
    def no_distances(A, B):
        raise AssertionError("distances computed before the parameter checks")

    monkeypatch.setattr(learning, "_pairwise_sq_dists", no_distances)
    X, y = [[0.0], [1.0]], [0.0, 1.0]
    for bad in ({"gp_noise_var": -1.0}, {"gp_jitter": 0.0}, {"gp_length_scale": 0.0}):
        with pytest.raises(PreconditionError):
            fit_regressor(X, y, replace(GP, **bad))


@pytest.mark.parametrize("name", ["noise_var", "jitter", "length_scale", "signal_var"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_gp_rejects_a_non_finite_parameter(name, value):
    # a NaN once gave a non-finite alpha without any error
    label = name.replace("_var", " variance").replace("_", " ")
    with pytest.raises(PreconditionError, match=f"^{label} must be (a )?finite"):
        fit_regressor([[0.0], [1.0]], [0.0, 1.0], replace(GP, **{"gp_" + name: value}))


def broadcast_sq_dists(A, B):
    """The (N, M, d) broadcast form the row-wise kernel must match bit for bit."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@settings(max_examples=60, deadline=None)
@given(
    rows_a=st.integers(min_value=0, max_value=7),
    rows_b=st.integers(min_value=0, max_value=7),
    d=st.integers(min_value=1, max_value=40),
    exponent=st.integers(min_value=-100, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(rows_a=0, rows_b=3, d=4, exponent=0, seed=1)
@example(rows_a=3, rows_b=0, d=4, exponent=0, seed=1)
@example(rows_a=5, rows_b=2, d=1, exponent=0, seed=1)
def test_pairwise_sq_dists_matches_the_broadcast_form(rows_a, rows_b, d, exponent, seed):
    A = uniform_matrix(rows_a, d, seed) * 10.0 ** exponent
    B = uniform_matrix(rows_b, d, seed + 1) * 10.0 ** exponent
    A, B = A.reshape(rows_a, d), B.reshape(rows_b, d)
    out = learning._pairwise_sq_dists(A, B)
    expected = broadcast_sq_dists(A, B)
    assert out.shape == expected.shape == (rows_a, rows_b)
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=40),
    exponent=st.integers(min_value=-100, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(rows=1, d=1, exponent=0, seed=1)
@example(rows=7, d=768, exponent=0, seed=1)
def test_self_sq_dists_on_one_triangle_match_the_broadcast_form(rows, d, exponent, seed):
    A = uniform_matrix(rows, d, seed).reshape(rows, d) * 10.0 ** exponent
    out = learning._pairwise_sq_dists(A)
    expected = broadcast_sq_dists(A, A)
    assert out.shape == (rows, rows)
    assert out.tobytes() == expected.tobytes()


def test_gp_fit_and_predict_hold_no_n_by_m_by_d_temporary():
    # the broadcast difference alone is 200 * 200 * 768 * 8 B = 245 MB
    rng = np.random.default_rng(7)
    X = rng.standard_normal((200, 768))
    y = X[:, 0] - 0.5 * X[:, 1]
    X_new = rng.standard_normal((100, 768))
    tracemalloc.start()
    try:
        predict_sv(fit_regressor(X, y, GP), X_new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_fit_regressor_dispatch():
    X = uniform_matrix(10, 2, seed=9)
    y = X @ np.array([1.0, 1.0])
    for kind in RegressorKind:
        model = fit_regressor(X, y, RegressorSpec(kind=kind))
        assert model.kind is kind
        assert model.d == 2
        # standardize=None means on for ridge and GP; linear never records it
        expected = None if kind is RegressorKind.LINEAR else True
        assert model.metadata.get("standardize") is expected


def test_fit_regressor_refuses_standardize_for_linear():
    X = uniform_matrix(10, 2, seed=9)
    y = X @ np.array([1.0, 1.0])
    spec = RegressorSpec(kind=RegressorKind.LINEAR, standardize=True)
    with pytest.raises(PreconditionError, match="regressor.standardize"):
        fit_regressor(X, y, spec)
    for standardize in (None, False):
        model = fit_regressor(X, y, RegressorSpec(kind=RegressorKind.LINEAR,
                                                  standardize=standardize))
        assert model.kind is RegressorKind.LINEAR


@pytest.mark.parametrize("kind", list(RegressorKind))
def test_a_kind_given_by_its_value_fits_that_kind(kind):
    X = uniform_matrix(10, 2, seed=9)
    y = X @ np.array([1.0, -0.5])
    spec = RegressorSpec(kind=kind.value)
    assert spec.kind is kind
    model = fit_regressor(X, y, spec)
    assert model.kind is kind
    want = predict_sv(fit_regressor(X, y, RegressorSpec(kind=kind)), X)
    assert predict_sv(model, X).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["lasso", "LINEAR", "", None, 3])
def test_an_unknown_kind_is_refused_with_the_allowed_values(kind):
    message = f"regressor kind must be one of ['linear', 'ridge', 'gp'], got {kind!r}"
    with pytest.raises(PreconditionError) as refused:
        RegressorSpec(kind=kind)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# prediction


def test_predict_sv_linear_hand_case():
    model = TrainedRegressor(
        kind=RegressorKind.LINEAR, d=2, weights=np.array([1.0, 0.0]), intercept=0.0
    )
    out = predict_sv(model, [[0.3, 9.9]])
    assert out.tolist() == [0.3]


def test_predict_sv_empty_and_mismatched_inputs():
    model = TrainedRegressor(
        kind=RegressorKind.LINEAR, d=2, weights=np.array([1.0, 0.0]), intercept=0.0
    )
    assert predict_sv(model, np.empty((0, 2))).shape == (0,)
    with pytest.raises(ShapeError):
        predict_sv(model, [[1.0, 2.0, 3.0]])
    with pytest.raises(ShapeError):
        predict_sv(model, [1.0, 2.0])


# ---------------------------------------------------------------------------
# correlation


def test_pearson_hand_cases():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12


def test_pearson_undefined_for_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])


@pytest.mark.parametrize("a, b", [([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
                                  ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf])],
                         ids=["nan", "inf"])
def test_pearson_refuses_non_finite_inputs(a, b):
    # a NaN correlation was once clamped to 1.0
    with pytest.raises(PreconditionError, match="finite"):
        pearson(a, b)


def test_pearson_shape_checks():
    with pytest.raises(PreconditionError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(PreconditionError):
        pearson([1], [2])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=12),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-5, max_value=5),
)
def test_pearson_affine_invariance(values, scale, shift):
    a = np.asarray(values)
    if np.allclose(a, a[0]):
        return
    assert abs(pearson(a, scale * a + shift) - 1.0) < 1e-9
    assert abs(pearson(a, -scale * a + shift) + 1.0) < 1e-9


# ---------------------------------------------------------------------------
# holdout evaluation


def test_holdout_noiseless_is_perfect():
    X = uniform_matrix(50, 3, seed=11)
    y = X @ np.array([0.8, -0.3, 0.5]) + 0.1
    report = holdout_eval(X, y, RegressorSpec(kind=RegressorKind.LINEAR), split_seed=3)
    assert abs(report["pearson"] - 1.0) < 1e-6
    assert report["rmse"] < 1e-8
    assert report["n_train"] + report["n_test"] == 50


def test_holdout_split_sizes():
    X = uniform_matrix(100, 2, seed=12)
    y = X @ np.array([1.0, 1.0])
    report = holdout_eval(X, y, RegressorSpec(), fraction=0.5)
    assert report["n_train"] == 50
    assert report["n_test"] == 50
    assert len(report["residuals"]) == 50


def test_holdout_report_fields():
    X = uniform_matrix(20, 2, seed=13)
    y = X @ np.array([1.0, -1.0])
    ids = [f"prompt-{i}" for i in range(20)]
    report = holdout_eval(X, y, RegressorSpec(kind=RegressorKind.RIDGE),
                          split_seed=5, ids=ids)
    assert report["kind"] == "ridge"
    assert report["seed"] == 5
    assert {row["id"] for row in report["residuals"]} <= set(ids)
    for row in report["residuals"]:
        assert set(row) == {"id", "true", "pred"}


def test_holdout_unlearnable_targets_have_low_correlation():
    # independent uniform features and targets: correlation collapses across seeds
    X = uniform_matrix(200, 8, seed=101, lo=0.0, hi=1.0)
    rng = SplitMix64(202)
    y = np.array([rng.uniform() for _ in range(200)])
    rs = [
        holdout_eval(X, y, RegressorSpec(kind=RegressorKind.LINEAR), split_seed=s)["pearson"]
        for s in range(100)
    ]
    abs_rs = [abs(r) for r in rs]
    assert sum(1 for r in abs_rs if r < 0.25) / len(abs_rs) >= 0.85
    assert statistics.median(abs_rs) < 0.15


def test_holdout_rejects_degenerate_splits():
    X = uniform_matrix(4, 2, seed=14)
    y = X @ np.array([1.0, 1.0])
    with pytest.raises(PreconditionError):
        holdout_eval(X, y, RegressorSpec(), fraction=0.25)   # 1 test row
    with pytest.raises(PreconditionError):
        holdout_eval(X, y, RegressorSpec(), fraction=0.75)   # 1 train row
    with pytest.raises(PreconditionError):
        holdout_eval(X, y, RegressorSpec(), fraction=0.0)
    with pytest.raises(ConsistencyError):
        holdout_eval(X, y, RegressorSpec(), ids=["only-one"])


def test_holdout_is_deterministic():
    X = uniform_matrix(30, 3, seed=15)
    y = X @ np.array([0.5, 0.5, 0.5]) + 0.01 * uniform_matrix(30, 1, seed=16).ravel()
    r1 = holdout_eval(X, y, RegressorSpec(), split_seed=9)
    r2 = holdout_eval(X, y, RegressorSpec(), split_seed=9)
    assert r1 == r2


def test_affine_values_are_learnable():
    X = uniform_matrix(80, 3, seed=17)
    w = np.array([0.6, -0.8, 0.4])
    y = X @ w + 0.3
    for kind in (RegressorKind.LINEAR, RegressorKind.RIDGE):
        report = holdout_eval(X, y, RegressorSpec(kind=kind), split_seed=7)
        assert report["pearson"] >= 0.95


def test_nonlinear_values_are_learnable_by_gp():
    X = uniform_matrix(80, 3, seed=18)
    y = np.tanh(X @ np.array([1.2, -0.9, 0.7]) + 0.1)
    report = holdout_eval(
        X, y, RegressorSpec(kind=RegressorKind.GAUSSIAN_PROCESS), split_seed=7
    )
    assert report["pearson"] >= 0.9


def test_holdout_with_a_kind_given_by_its_value():
    X = uniform_matrix(30, 3, seed=16)
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.1
    report = holdout_eval(X, y, RegressorSpec(kind="linear"), split_seed=3)
    assert report["kind"] == "linear"
    assert report == holdout_eval(X, y, LINEAR, split_seed=3)


# ---------------------------------------------------------------------------
# model files


def test_linear_model_round_trip(tmp_path):
    X = uniform_matrix(20, 3, seed=19)
    y = X @ np.array([1.0, 2.0, 3.0]) + 0.5
    model = fit_regressor(X, y, LINEAR)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind is RegressorKind.LINEAR
    assert loaded.d == 3
    assert np.array_equal(predict_sv(loaded, X), predict_sv(model, X))


def test_gp_model_round_trip(tmp_path):
    X = uniform_matrix(12, 2, seed=20)
    y = np.sin(X[:, 0]) * np.cos(X[:, 1])
    model = fit_regressor(X, y, GP)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind is RegressorKind.GAUSSIAN_PROCESS
    probe = uniform_matrix(5, 2, seed=21)
    assert np.allclose(predict_sv(loaded, probe), predict_sv(model, probe), atol=1e-12)


def test_save_model_holds_its_array_text_at_most_three_times(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((200, 768))
    model = fit_regressor(X, X[:, 0] - 0.5 * X[:, 1], GP)
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        save_model(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file is about 1.66 MB, nearly all of it x_train's base64 text; the
    # writer holds that text, json's quoted copy of it and the file's encoded
    # bytes of that copy, and any further copy would add a third of the limit
    assert peak < 3.125 * path.stat().st_size


GP_PARAMETERS = {
    "x_mean": [0.0, 0.0], "x_scale": [1.0, 1.0],
    "x_train": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], "y_mean": 0.5,
    "alpha": [0.1, -0.2, 0.3], "length_scale": 1.0, "signal_var": 1.0,
    "noise_var": 1e-4, "jitter_used": 1e-10,
}


def test_a_valid_model_file_loads(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc("gp", 2, GP_PARAMETERS)))
    model = load_model(path)
    assert model.x_train.shape == (3, 2)
    assert model.alpha.shape == (3,)
    assert predict_sv(model, [[0.5, 0.5]]).shape == (1,)


def edge_model(rows: int) -> TrainedRegressor:
    """A GP model of ``rows`` training rows whose floats sit on float64's
    edges; fit needs a row, so it is built by hand."""
    edges = [-0.0, 5e-324, 1e300, -1e-300, math.nextafter(1.0, 2.0), -2.2250738585072014e-308]
    return TrainedRegressor(
        kind=RegressorKind.GAUSSIAN_PROCESS, d=3, x_mean=np.array(edges[:3]),
        x_scale=np.array(edges[3:]), x_train=np.array([edges[:3], edges[3:]])[:rows],
        y_mean=-0.0, alpha=np.array(edges[1:3])[:rows], length_scale=5e-324,
        signal_var=1e300, noise_var=0.0, jitter_used=math.nextafter(0.0, 1.0))


def fitted_model(spec) -> TrainedRegressor:
    X = uniform_matrix(12, 4, seed=22)
    return fit_regressor(X, X[:, 0] * X[:, 1], spec)


@pytest.mark.parametrize("model", [
    edge_model(2), edge_model(0), fitted_model(LINEAR), fitted_model(RIDGE), fitted_model(GP),
], ids=["edges", "edges-no-rows", "linear", "ridge", "gp"])
def test_a_model_file_keeps_every_float64_bit(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("weights", "intercept", "x_mean", "x_scale", "x_train", "y_mean", "alpha",
                 "length_scale", "signal_var", "noise_var", "jitter_used"):
        value, back = getattr(model, name), getattr(loaded, name)
        if value is None:
            assert back is None, name
        else:
            assert np.shape(back) == np.shape(value), name
            assert np.asarray(back, np.float64).tobytes() == np.asarray(value).tobytes(), name


ROWS_F8LE = encoded_array(GP_PARAMETERS["x_train"])["f8le"]
# a payload of 5 numbers where its shape holds 6
SHORT_ROWS = {"shape": [3, 2], "f8le": encoded_array([0.0, 1.0, 1.0, 0.0, 1.0])["f8le"]}


@pytest.mark.parametrize("name, value, named", [
    ("alpha", [0.1, -0.2], "alpha"),                        # one short of x_train's rows
    ("alpha", [0.1, -0.2, 0.3, 0.4], "alpha"),
    ("x_train", SHORT_ROWS, "x_train"),                     # a byte count short of the shape
    ("x_train", {"shape": [3, 2], "f8le": " " + ROWS_F8LE}, "x_train"),  # not base64
    ("x_train", [0.0, 1.0, 1.0], "x_train"),
    ("x_train", "[[0.0, 1.0]]", "x_train"),
    ("x_mean", [0.0], "x_mean"),
    ("x_scale", {"shape": [2], "f8le": [1.0, True]}, "x_scale"),  # a payload not a string
    ("y_mean", "0.5", "y_mean"),
    ("length_scale", None, "length_scale"),
    ("noise_var", [1e-4], "noise_var"),
    ("d", 3, "x_mean"),                                     # every array is 2 wide
    ("d", "2", "d"),
    ("d", 2.0, "d"),
    ("d", True, "d"),
    ("x_train", {"shape": [3, 2.0], "f8le": ROWS_F8LE}, "x_train"),
    ("x_train", {"shape": [-3, 2], "f8le": ""}, "x_train"),
    ("x_train", {"shape": [3, True], "f8le": SHORT_ROWS["f8le"]}, "x_train"),
    ("x_train", {"f8le": SHORT_ROWS["f8le"]}, "x_train"),
    ("x_train", {"shape": [3, 2], "f8le": SHORT_ROWS["f8le"] + "\u00e9"}, "x_train"),
    ("alpha", [0.1, math.nan, 0.3], "alpha"),
    ("x_mean", [-math.inf, 0.0], "x_mean"),
])
def test_malformed_model_file_names_the_file(tmp_path, name, value, named):
    if name == "d":
        doc = model_doc("gp", value, GP_PARAMETERS)
    else:
        doc = model_doc("gp", 2, {**GP_PARAMETERS, name: value})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConsistencyError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert repr(named) in str(info.value)


@pytest.mark.parametrize("weights", [
    [1.0],
    [1.0, 2.0, 3.0],
    {"shape": [2], "f8le": [1.0, False]},                   # the numbers as a list
    {"shape": ["2"], "f8le": encoded_array([1.0, 2.0])["f8le"]},
])
def test_linear_model_weights_must_be_d_numbers(tmp_path, weights):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc("ridge", 2, {"weights": weights, "intercept": 0.0})))
    with pytest.raises(ConsistencyError, match="'weights'"):
        load_model(path)


def test_a_schema_1_model_is_refused_with_the_way_out(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "ridge", "d": 1, "metadata": {},
                                "parameters": {"weights": [0.5], "intercept": 0.0}}))
    with pytest.raises(ConsistencyError, match="re-run 'promptshap learn'") as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: model schema 1 ")


def test_load_model_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 99, "kind": "linear"}))
    with pytest.raises(ConsistencyError):
        load_model(path)


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_matrix_validation():
    with pytest.raises(ConsistencyError):
        EmbeddingMatrix(("a", "a"), np.zeros((2, 3)))
    with pytest.raises(ConsistencyError):
        EmbeddingMatrix(("a",), np.zeros(3))
    with pytest.raises(ConsistencyError):
        EmbeddingMatrix(("a", "b"), np.zeros((1, 3)))
    with pytest.raises(ConsistencyError):
        EmbeddingMatrix(("a",), np.array([[1.0, math.nan]]))


def test_embedding_select_orders_and_checks():
    emb = EmbeddingMatrix(("a", "b", "c"), np.array([[1.0], [2.0], [3.0]]))
    sub = emb.select(["c", "a"])
    assert sub.prompt_ids == ("c", "a")
    assert sub.vectors.tolist() == [[3.0], [1.0]]
    with pytest.raises(ConsistencyError):
        emb.select(["a", "nope"])


def test_embeddings_file_round_trip(tmp_path):
    emb = EmbeddingMatrix(("a", "b"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    path = tmp_path / "emb.jsonl"
    save_embeddings(emb, path)
    loaded = load_embeddings(path)
    assert loaded.prompt_ids == emb.prompt_ids
    assert np.array_equal(loaded.vectors, emb.vectors)


@pytest.mark.parametrize("vector", [["1.5", 2.0], [1.5, True], [None, 1.0]])
def test_embedding_entries_must_be_json_numbers(tmp_path, vector):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"id": "a", "vector": [0.1, 0.2]}) + "\n"
        + json.dumps({"id": "b", "vector": vector}) + "\n"
    )
    with pytest.raises(ConsistencyError, match="must be an array of numbers") as info:
        load_embeddings(path)
    assert str(info.value).startswith(f"{path}:2: ")


def test_embedding_vectors_must_be_a_matrix():
    with pytest.raises(ConsistencyError, match="must be 2-D"):
        EmbeddingMatrix(("a",), np.array([0.5, 0.5]))


def test_integer_embedding_entries_are_read_as_floats(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"id": "a", "vector": [1, 2.5, -3]}) + "\n")
    assert load_embeddings(path).vectors.tolist() == [[1.0, 2.5, -3.0]]


def test_load_embeddings_rejects_ragged_rows(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"id": "a", "vector": [0.1, 0.2]}) + "\n"
        + json.dumps({"id": "b", "vector": [0.3]}) + "\n"
    )
    with pytest.raises(ConsistencyError):
        load_embeddings(path)
