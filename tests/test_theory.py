import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap.errors import (
    ConditioningError, ConsistencyError, PreconditionError, PromptShapError,
)
from promptshap.game import shapley_exact
from promptshap.rng import SplitMix64
from promptshap.special import beta_mass_quad, betainc, normal_cdf
from promptshap.theory import (
    BetaSpec,
    LipschitzGame,
    beta_bounds_report,
    ensemble_perturbation,
    lemma1_identity,
    lemma1_sweep,
    make_affine_field,
    make_tanh_field,
    mean_field_shapley,
    perturbation_lipschitz,
    theorem1_experiment,
    theorem1_game,
)


# ---------------------------------------------------------------------------
# coefficient identity


def test_identity_hand_cases():
    assert lemma1_identity(3, 0) == (Fraction(1, 2), Fraction(1, 2))
    assert lemma1_identity(4, 1) == (Fraction(1, 6), Fraction(1, 6))
    assert lemma1_identity(2, 0) == (Fraction(1, 1), Fraction(1, 1))


def test_identity_preconditions():
    with pytest.raises(PreconditionError):
        lemma1_identity(1, 0)
    with pytest.raises(PreconditionError):
        lemma1_identity(4, -1)
    with pytest.raises(PreconditionError):
        lemma1_identity(4, 3)


def test_identity_sweep_covers_all_cases():
    report = lemma1_sweep(64)
    assert report["cases"] == 2016
    assert report["equal"] is True
    assert report["failures"] == []


# ---------------------------------------------------------------------------
# mean-field games and the value-difference bound


def random_gvals(n, seed):
    rng = SplitMix64(seed)
    return [2.0 * rng.uniform() - 1.0 for _ in range(n)]


@pytest.mark.parametrize("n,seed", [(2, 1), (4, 2), (6, 3)])
def test_closed_form_matches_enumeration(n, seed):
    gvals = np.array(random_gvals(n, seed))
    emb = np.eye(n)
    field = lambda e: float(np.dot(gvals, e))
    game = LipschitzGame(emb, field, lipschitz_l=10.0 * n)
    closed = mean_field_shapley(gvals)
    enumerated = shapley_exact(game.game()).values
    assert np.allclose(closed, enumerated, atol=1e-10)
    assert abs(math.fsum(closed) - math.fsum(gvals) / n) < 1e-10


def test_closed_form_single_player():
    assert mean_field_shapley([0.7]).tolist() == [0.7]


def test_lipschitz_declaration_is_checked():
    emb = np.array([[0.0], [1.0]])
    field = lambda e: 2.0 * float(e[0])
    with pytest.raises(PreconditionError):
        LipschitzGame(emb, field, lipschitz_l=1.0)
    LipschitzGame(emb, field, lipschitz_l=2.0)  # tight constant is fine


def test_lipschitz_game_validation():
    with pytest.raises(PreconditionError):
        LipschitzGame(np.zeros((0, 2)), lambda e: 0.0, 1.0)
    with pytest.raises(PreconditionError):
        LipschitzGame(np.zeros((2, 2)), lambda e: 0.0, 0.0)


def test_a_one_player_lipschitz_game_builds():
    # no pair to spot-check: the one player's value is its field value
    game = LipschitzGame(np.array([[0.5, -1.0]]), lambda e: 0.25, lipschitz_l=1.0)
    assert game.n == 1
    assert shapley_exact(game.game()).values == (0.25,)


@pytest.mark.parametrize("constant", [math.nan, math.inf, -1.0, True, "1"],
                         ids=["nan", "inf", "negative", "bool", "string"])
def test_a_lipschitz_constant_must_be_a_finite_positive_real(constant):
    # a NaN constant once passed, and the spot check then checked nothing
    with pytest.raises(PreconditionError, match="finite positive real"):
        LipschitzGame(np.array([[0.0], [1.0]]), lambda e: 100 * float(e[0]), constant)


def test_a_field_that_returns_nan_is_refused_at_construction():
    # the spot check's |nan - g| > allowed is never true, so the game once
    # built and failed later as a utility oracle error on coalition 02
    field = lambda e: math.nan if e[0] == 1.0 else float(e[0])
    with pytest.raises(PreconditionError, match="embedding 1 is nan, not a finite real"):
        LipschitzGame(np.array([[0.0], [1.0], [2.0]]), field, lipschitz_l=1.0)


def test_a_field_that_returns_infinity_is_refused_at_construction():
    # inf - inf once raised only a RuntimeWarning, and the game built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="embedding 0 is inf, not a finite real"):
            LipschitzGame(np.array([[0.0], [1.0], [2.0]]), lambda e: math.inf, lipschitz_l=1.0)


def test_theorem1_game_refuses_an_unknown_field():
    with pytest.raises(PreconditionError, match="field must be 'affine' or 'tanh', got 'cubic'"):
        theorem1_game(3, 2, seed=0, field="cubic")


def test_affine_and_tanh_field_constants():
    w = np.array([3.0, 4.0])
    f, l = make_affine_field(w, c=0.5)
    assert l == 5.0
    assert abs(f(np.array([1.0, 1.0])) - 7.5) < 1e-12
    g, lg = make_tanh_field(w)
    assert lg == 5.0
    assert abs(g(np.array([0.1, 0.0])) - math.tanh(0.3)) < 1e-12


def test_value_difference_bound_holds():
    rng = SplitMix64(9)
    d = 3
    w = np.array([2.0 * rng.uniform() - 1.0 for _ in range(d)])
    field, l = make_affine_field(w, c=0.2)
    emb = np.array([[2.0 * rng.uniform() - 1.0 for _ in range(d)] for _ in range(4)])
    game = LipschitzGame(emb, field, l)
    report = theorem1_experiment(game, trials=5, seed=17)
    assert report["violations"] == 0
    assert report["pairs_checked"] == 5 * 6
    assert 0.0 < report["max_ratio"] <= 1.0 + 1e-9


def test_doubling_the_constant_halves_the_ratio():
    rng = SplitMix64(10)
    w = np.array([2.0 * rng.uniform() - 1.0 for _ in range(3)])
    field, l = make_affine_field(w)
    emb = np.array([[2.0 * rng.uniform() - 1.0 for _ in range(3)] for _ in range(4)])
    r1 = theorem1_experiment(LipschitzGame(emb, field, l), trials=3, seed=5)
    r2 = theorem1_experiment(LipschitzGame(emb, field, 2.0 * l), trials=3, seed=5)
    assert abs(r2["max_ratio"] - 0.5 * r1["max_ratio"]) < 1e-12 * r1["max_ratio"]


@pytest.mark.parametrize("second, ratio", [([1.0, 0.0], 1.0), ([0.0, 1.0], 0.0)],
                         ids=["along-the-field", "across-the-field"])
def test_trial_zero_uses_the_embeddings_of_the_callers_game(second, ratio):
    # two players: v0 - v1 = g(e0) - g(e1), so the ratio is 1 along w and 0 across it
    field, l = make_affine_field(np.array([1.0, 0.0]))
    game = LipschitzGame(np.array([[0.0, 0.0], second]), field, l)
    report = theorem1_experiment(game, trials=1, seed=3)
    assert report["max_ratio"] == pytest.approx(ratio, abs=1e-12)


def test_experiment_rejects_zero_trials():
    emb = np.eye(2)
    field, l = make_affine_field(np.array([1.0, 0.0]))
    with pytest.raises(PreconditionError):
        theorem1_experiment(LipschitzGame(emb, field, l), trials=0, seed=0)


# ---------------------------------------------------------------------------
# Beta interval bounds


def test_beta_spec_moments():
    spec = BetaSpec(2, 2)
    assert spec.mu == 0.5
    assert abs(spec.sigma - math.sqrt(4 / (16 * 5))) < 1e-15
    with pytest.raises(PreconditionError):
        BetaSpec(0, 1)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan),
                                         (2.0, -math.inf), (True, 2.0), (0, 2.0), (2.0, 0.0)],
                         ids=["alpha-nan", "alpha-inf", "beta-nan", "beta-minus-inf", "bool",
                              "alpha-zero", "beta-zero"])
def test_beta_shape_parameters_must_be_finite_and_positive(alpha, beta):
    # a NaN or infinite shape once passed, and the interval quadrature never converged
    with pytest.raises(PreconditionError, match="finite and positive"):
        BetaSpec(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [(1e300, 1e300), (1e-300, 1e-300), (1e-300, 1.0)],
                         ids=["sigma-nan", "sigma-zero-division", "lipschitz-overflow"])
def test_beta_shapes_need_a_finite_sigma_and_flip_constant(alpha, beta):
    with pytest.raises(PreconditionError, match="positive finite sigma"):
        BetaSpec(alpha, beta)


def test_the_golden_beta_shapes_are_accepted():
    for alpha, beta in ((3, 5), (20, 30)):
        spec = BetaSpec(alpha, beta)
        assert 0 < spec.sigma < 1 and math.isfinite(perturbation_lipschitz(spec))


def test_uniform_interval_is_linear():
    assert abs(beta_bounds_report(BetaSpec(1, 1), 0.1)["exact"] - 0.2) < 1e-12


def test_be22_interval_closed_form():
    # F(0.6) - F(0.4) for CDF 3x^2 - 2x^3
    assert abs(beta_bounds_report(BetaSpec(2, 2), 0.1)["exact"] - 0.296) < 1e-12


def test_exact_and_quadrature_agree():
    for spec, eps in ((BetaSpec(50, 50), 0.01), (BetaSpec(30, 70), 0.01), (BetaSpec(1, 1), 0.1)):
        report = beta_bounds_report(spec, eps)
        assert abs(report["exact"] - report["quad"]) < 1e-9


def test_frozen_interval_values():
    be50, be500 = (beta_bounds_report(BetaSpec(a, a), 0.01) for a in (50, 500))
    assert abs(be50["exact"] - 0.15814447222588219) < 1e-11
    assert abs(be500["exact"] - 0.47284878328682906) < 1e-11
    assert abs(beta_bounds_report(BetaSpec(1, 1), 0.1)["normal"] - 0.270965510461196) < 1e-12
    assert abs(be50["normal"] - 0.159299480823972) < 1e-12


def test_normal_approximation_quality():
    report = beta_bounds_report(BetaSpec(50, 50), 0.01)
    assert abs(report["normal"] - report["exact"]) / report["exact"] < 0.02
    report = beta_bounds_report(BetaSpec(500, 500), 0.01)
    assert abs(report["normal"] - report["exact"]) / report["exact"] < 0.005


def test_poly_interval_values_and_flags():
    p = beta_bounds_report(BetaSpec(1, 1), 0.1)
    assert abs(p["poly"] - 0.276395319577068) < 1e-12
    assert p["poly_out_of_validity"]  # overshoots the exact mass 0.2 by far more than 10%
    assert not beta_bounds_report(BetaSpec(50, 50), 0.01)["poly_out_of_validity"]
    assert not beta_bounds_report(BetaSpec(500, 500), 0.01)["poly_out_of_validity"]


def test_poly_flag_fires_on_leading_factor_above_one():
    p = beta_bounds_report(BetaSpec(200, 200), 0.2)
    assert p["poly_leading_factor"] > 1.0
    assert p["poly_out_of_validity"]


def test_poly_flag_fires_on_negative_value():
    p = beta_bounds_report(BetaSpec(30, 70), 0.01)
    assert p["poly"] < 0.0
    assert p["poly_out_of_validity"]


def test_interval_eps_domain():
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(PreconditionError):
            beta_bounds_report(BetaSpec(2, 2), eps)


def test_bounds_report_keys():
    report = beta_bounds_report(BetaSpec(2, 2), 0.1)
    assert set(report) == {
        "alpha", "beta", "epsilon", "mu", "sigma", "exact", "quad", "normal",
        "poly", "poly_leading_factor", "poly_out_of_validity",
    }
    assert abs(report["exact"] - 0.296) < 1e-6


# The per-column functions that beta_bounds_report once went through, kept
# verbatim as the reference for the one-function report.


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 0.5:
        raise PreconditionError(f"epsilon must lie in (0, 0.5), got {eps}")


def beta_interval_exact(spec: BetaSpec, eps: float) -> float:
    _check_eps(eps)
    return betainc(spec.alpha, spec.beta, 0.5 + eps) - betainc(spec.alpha, spec.beta, 0.5 - eps)


def beta_interval_quad(spec: BetaSpec, eps: float) -> float:
    """Independent quadrature evaluation of the same interval mass."""
    _check_eps(eps)
    return beta_mass_quad(spec.alpha, spec.beta, 0.5 - eps, 0.5 + eps)


def beta_interval_normal(spec: BetaSpec, eps: float) -> float:
    _check_eps(eps)
    mu, sigma = spec.mu, spec.sigma
    return normal_cdf((0.5 + eps - mu) / sigma) - normal_cdf((0.5 - eps - mu) / sigma)


@dataclass(frozen=True)
class PolyInterval:
    value: float
    leading_factor: float
    correction: float
    out_of_validity: bool
    reference_exact: float
    reference_normal: float


def beta_interval_poly(spec: BetaSpec, eps: float) -> PolyInterval:
    """Linear Taylor approximation of the interval mass, with a validity flag.

    The flag fires when the approximation cannot be trusted: leading factor
    above 1, value outside [0, 1], or overshooting the exact or normal
    interval by more than 10% relative.
    """
    _check_eps(eps)
    mu, sigma = spec.mu, spec.sigma
    leading = 2.0 * eps / (math.sqrt(2.0 * math.pi) * sigma)
    correction = 1.0 - (0.5 - mu) ** 2 / (3.0 * sigma * sigma)
    value = leading * correction
    exact = beta_interval_exact(spec, eps)
    normal = beta_interval_normal(spec, eps)
    flagged = (
        leading > 1.0
        or not 0.0 <= value <= 1.0
        or value > 1.1 * normal
        or value > 1.1 * exact
    )
    return PolyInterval(
        value=value,
        leading_factor=leading,
        correction=correction,
        out_of_validity=flagged,
        reference_exact=exact,
        reference_normal=normal,
    )


def reference_beta_bounds_report(spec: BetaSpec, eps: float) -> dict:
    poly = beta_interval_poly(spec, eps)
    return {
        "alpha": spec.alpha,
        "beta": spec.beta,
        "epsilon": eps,
        "mu": spec.mu,
        "sigma": spec.sigma,
        "exact": poly.reference_exact,
        "quad": beta_interval_quad(spec, eps),
        "normal": poly.reference_normal,
        "poly": poly.value,
        "poly_leading_factor": poly.leading_factor,
        "poly_out_of_validity": poly.out_of_validity,
    }


def report_outcome(report, spec, eps):
    """Each column's type and bits in key order, or the error's class and message."""
    try:
        doc = report(spec, eps)
    except PromptShapError as exc:
        return type(exc), str(exc)
    return [(key, type(v), v.hex() if isinstance(v, float) else v) for key, v in doc.items()]


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=500),
    st.floats(min_value=0.5, max_value=500),
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
)
def test_the_report_matches_the_per_column_functions(a, b, eps):
    spec = BetaSpec(a, b)
    assert (report_outcome(beta_bounds_report, spec, eps)
            == report_outcome(reference_beta_bounds_report, spec, eps))


@pytest.mark.parametrize("shape, eps", [((2, 2), 0.0), ((2, 2), 0.5), ((2, 2), -0.1),
                                        ((1e5, 1e5), 0.1)],
                         ids=["eps-zero", "eps-half", "eps-negative", "quadrature-budget"])
def test_the_report_refuses_as_the_per_column_functions_did(shape, eps):
    spec = BetaSpec(*shape)
    want = report_outcome(reference_beta_bounds_report, spec, eps)
    assert want[0] in (PreconditionError, ConditioningError)
    assert report_outcome(beta_bounds_report, spec, eps) == want


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=1, max_value=100),
    st.floats(min_value=1, max_value=100),
    st.floats(min_value=0.005, max_value=0.45),
)
def test_interval_mass_is_a_probability(a, b, eps):
    mass = beta_bounds_report(BetaSpec(a, b), eps)["exact"]
    assert -1e-12 <= mass <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# perturbation simulator


def test_perturbation_lipschitz_frozen():
    assert abs(perturbation_lipschitz(BetaSpec(50, 50)) - 16.037281192162933) < 1e-9


def test_perturbation_identity_is_machine_precision():
    report = ensemble_perturbation(
        BetaSpec(2, 2), n_classifiers=10, num_instances=1000, k=0, delta=0.3, seed=0, trials=1
    )
    assert report["identity_instances"] == 1000
    assert report["identity_max_abs_err"] <= 1e-12


def test_zero_delta_moves_nothing():
    report = ensemble_perturbation(
        BetaSpec(2, 2), n_classifiers=5, num_instances=200, k=2, delta=0.0, seed=1, trials=3
    )
    assert report["identity_instances"] == 200
    assert report["identity_max_abs_err"] == 0.0
    assert report["bound"] == 0.0
    assert report["up_flips"]["max"] == 0.0
    assert report["down_flips"]["max"] == 0.0
    assert report["exceed_count"] == 0


def test_one_classifier_carries_the_whole_shift():
    report = ensemble_perturbation(
        BetaSpec(2, 2), n_classifiers=1, num_instances=200, k=0, delta=0.3, seed=2, trials=2
    )
    assert report["epsilon"] == 0.3
    assert report["identity_max_abs_err"] == 0.0   # the mean of one classifier is its score


def test_a_trial_above_the_flip_bound_is_counted():
    # ten instances are too few for the expected fraction: two of twenty
    # trials flip more than the bound in one direction
    report = ensemble_perturbation(
        BetaSpec(2, 2), n_classifiers=5, num_instances=10, k=0, delta=0.5, seed=0, trials=20
    )
    assert report["exceed_count"] == 2
    assert max(report["up_flips"]["max"], report["down_flips"]["max"]) > report["bound"]


def test_a_fraction_on_an_interval_edge_counts_as_its_side_says(monkeypatch):
    # delta = 0.5 over 2 classifiers is eps = 0.25 exactly: 0.75 = 0.5 + eps
    # closes the down interval (0.5, 0.75], 0.25 = 0.5 - eps lies outside
    # the up interval (0.25, 0.5], which 0.5 closes
    default_rng = np.random.default_rng

    class EdgeFractions:
        def __init__(self, seed):
            self.generator = default_rng(seed)

        def beta(self, alpha, beta, size):
            if isinstance(size, int):    # a trial's ensemble means
                return np.array([0.75, 0.25, 0.5, 0.9])
            return self.generator.beta(alpha, beta, size=size)

    monkeypatch.setattr(np.random, "default_rng", EdgeFractions)
    report = ensemble_perturbation(
        BetaSpec(2, 2), n_classifiers=2, num_instances=4, k=0, delta=0.5, seed=0, trials=1
    )
    assert report["epsilon"] == 0.25
    assert report["down_flips"]["max"] == 0.25
    assert report["up_flips"]["max"] == 0.25


def test_perturbation_report_shape_and_prediction():
    report = ensemble_perturbation(
        BetaSpec(50, 50), n_classifiers=100, num_instances=5000, k=0,
        delta=0.5, seed=0, trials=20,
    )
    for key in (
        "alpha", "beta", "n_classifiers", "num_instances", "k", "delta", "trials",
        "seed", "epsilon", "lipschitz_l", "bound", "predicted_flip_fraction",
        "up_flips", "down_flips", "exceed_count", "identity_instances",
        "identity_max_abs_err",
    ):
        assert key in report
    assert report["epsilon"] == 0.005
    assert abs(report["bound"] - report["lipschitz_l"] * 0.005) < 1e-15
    assert report["exceed_count"] == 0
    assert report["identity_max_abs_err"] <= 1e-12
    predicted = report["predicted_flip_fraction"]
    assert abs(report["up_flips"]["mean"] - predicted) / predicted < 0.2
    assert abs(report["down_flips"]["mean"] - predicted) / predicted < 0.2


def test_perturbation_is_deterministic():
    kwargs = dict(n_classifiers=10, num_instances=500, k=1, delta=0.4, seed=7, trials=4)
    r1 = ensemble_perturbation(BetaSpec(3, 3), **kwargs)
    r2 = ensemble_perturbation(BetaSpec(3, 3), **kwargs)
    assert r1 == r2


def test_perturbation_argument_validation():
    spec = BetaSpec(2, 2)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 0, 100, 0, 0.1, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 100, 5, 0.1, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 100, -1, 0.1, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 100, 0, 1.5, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 100, 0, -0.1, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 0, 0, 0.1, 0, 1)
    with pytest.raises(PreconditionError):
        ensemble_perturbation(spec, 5, 100, 0, 0.1, 0, 0)


def test_lipschitz_game_is_a_batch_of_member_means():
    gvals = random_gvals(5, 7)
    game = LipschitzGame(np.eye(5), lambda e: float(np.dot(gvals, e)), lipschitz_l=10.0)
    spec = game.game()
    masks = list(range(1 << 5))
    want = [math.fsum(g for i, g in enumerate(gvals) if m >> i & 1) / m.bit_count() if m else 0.0
            for m in masks]
    assert list(spec.batch(masks, 5)) == want
    with pytest.raises(ConsistencyError):
        list(spec.batch([1], 4))
