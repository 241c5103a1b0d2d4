import math

import pytest
from hypothesis import given, settings, strategies as st

from promptshap import special
from promptshap.errors import ConditioningError, PreconditionError
from promptshap.special import (
    beta_mass_quad,
    betainc,
    log_beta,
    normal_cdf,
)


def test_betainc_frozen_reference_values():
    # high-precision references computed with mpmath's betainc (regularized)
    assert abs(betainc(50, 50, 0.45) - 0.15865219893709879) < 1e-12
    assert abs(betainc(50, 50, 0.495) - 0.4602702856913128) < 1e-12


def test_uniform_cdf_is_identity():
    for x in (0.1, 0.25, 0.5, 0.9):
        assert abs(betainc(1, 1, x) - x) < 1e-14


def test_be22_cdf_closed_form():
    # Be(2,2) has CDF 3x^2 - 2x^3
    for x in (0.1, 0.3, 0.5, 0.77):
        assert abs(betainc(2, 2, x) - (3 * x**2 - 2 * x**3)) < 1e-13
    assert abs(betainc(2, 2, 0.3) - 0.216) < 1e-13


def test_betainc_boundaries_and_preconditions():
    assert betainc(3, 4, 0.0) == 0.0
    assert betainc(3, 4, -0.5) == 0.0
    assert betainc(3, 4, 1.0) == 1.0
    assert betainc(3, 4, 1.5) == 1.0
    with pytest.raises(PreconditionError):
        betainc(0, 1, 0.5)
    with pytest.raises(PreconditionError):
        betainc(1, -2, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=20),
    st.floats(min_value=0.5, max_value=20),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_betainc_matches_quadrature(a, b, x):
    lo = 1e-9
    head = betainc(a, b, lo)
    assert abs((betainc(a, b, x) - head) - beta_mass_quad(a, b, lo, x)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=50),
    st.floats(min_value=0.5, max_value=50),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_betainc_symmetry(a, b, x):
    assert abs(betainc(a, b, x) + betainc(b, a, 1.0 - x) - 1.0) < 1e-12


def test_beta_mass_quad_bounds_checked():
    with pytest.raises(PreconditionError):
        beta_mass_quad(2, 2, 0.0, 0.5)
    with pytest.raises(PreconditionError):
        beta_mass_quad(2, 2, 0.6, 0.5)
    assert beta_mass_quad(2, 2, 0.5, 0.5) == 0.0


def test_beta_mass_quad_known_interval():
    # Be(2,2) mass of [0.4, 0.6] = F(0.6) - F(0.4) = 0.648 - 0.352
    assert abs(beta_mass_quad(2, 2, 0.4, 0.6) - 0.296) < 1e-10


def test_betainc_converges_on_large_shapes():
    # the fraction needs 513 iterations at 1e6, 1,082 at 1e7 and 45,243 at
    # 1e12; lgamma's rounding leaves 5e-10 and 8e-9 of error at the first two
    for shape in (1e6, 1e7):
        assert abs(betainc(shape, shape, 0.5) - 0.5) < 1e-7
    sigma = math.sqrt(0.25 / (2e6 + 1.0))
    mass = betainc(1e6, 1e6, 0.5 + 1e-7) - betainc(1e6, 1e6, 0.5 - 1e-7)
    assert abs(mass - 2e-7 / (math.sqrt(2 * math.pi) * sigma)) / mass < 1e-5


def test_betainc_raises_past_its_iteration_cap():
    with pytest.raises(ConditioningError, match="did not converge"):
        betainc(1e14, 1e14, 0.5)


def test_quadrature_raises_past_its_evaluation_budget():
    # the density's rounding noise outlasts every halved tolerance
    with pytest.raises(ConditioningError, match="262144 density evaluations"):
        beta_mass_quad(1e5, 1e5, 0.4, 0.6)


def test_quadrature_budget_keeps_the_bits_of_a_case_under_it(monkeypatch):
    # the widest case of the hypothesis ranges above takes 43,321 evaluations
    value = beta_mass_quad(0.5, 20, 1e-9, 0.95)
    monkeypatch.setattr(special, "_QUAD_BUDGET", 43_321)
    assert beta_mass_quad(0.5, 20, 1e-9, 0.95) == value
    monkeypatch.setattr(special, "_QUAD_BUDGET", 43_320)
    with pytest.raises(ConditioningError):
        beta_mass_quad(0.5, 20, 1e-9, 0.95)


def test_an_overflowing_beta_term_is_a_conditioning_error():
    # the density at lo is about a / x = 2e320 at the smallest float, past
    # the float range
    with pytest.raises(ConditioningError, match=r"a Be\(0.001, 1.0\) term overflows a float"):
        beta_mass_quad(1e-3, 1.0, 5e-324, 0.5)


def test_log_beta():
    # B(2,2) = 1/6
    assert abs(log_beta(2, 2) - math.log(1 / 6)) < 1e-13


def test_normal_cdf_known_values():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-12
    assert abs(normal_cdf(-1.96) - (1 - 0.9750021048517795)) < 1e-12
    assert normal_cdf(10.0) > 1 - 1e-12
    assert normal_cdf(-10.0) < 1e-12
