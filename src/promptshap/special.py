"""Special functions for the Beta-interval bounds.

The regularized incomplete beta function I_x(a, b) has one path: a modified
Lentz continued fraction with the usual symmetry reduction (applied where it
converges quickly, x < (a+1)/(a+b+2)), which raises ``ConditioningError``
past ``_MAX_ITER`` iterations (at x = 0.5, a = b = 1e12 needs 45,243). An
adaptive Simpson quadrature of the density is the independent cross-check;
on moderate shapes the two agree to 1e-10. Above shapes of about 8e4 the
density's rounding noise outlasts the halving tolerance, so the quadrature
raises ``ConditioningError`` after ``_QUAD_BUDGET`` density evaluations (the
tests' cases take at most 43,321), as does a term past the float range.
Both paths lose digits to lgamma's rounding as the shapes grow: I_0.5(a, a)
reads 0.5 + 5e-10 at a = 1e6. The normal CDF goes through ``math.erfc`` and
is accurate to better than 1e-12.
"""

from __future__ import annotations

import itertools
import math

from .errors import ConditioningError, PreconditionError

_MAX_ITER = 100_000
_CF_EPS = 3e-14
_FPMIN = 1e-300
_QUAD_TOL = 1e-11
_QUAD_DEPTH = 60
_QUAD_BUDGET = 1 << 18


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _exp(value: float, a: float, b: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:   # a < 1 near x = 0, or lgamma's rounding at shapes near 1e30
        raise ConditioningError(f"a Be({a}, {b}) term overflows a float") from None


def _density(a: float, b: float, ln_beta: float, x: float) -> float:
    """Density of Be(a, b) at interior x, given ``ln_beta = log_beta(a, b)``."""
    return _exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - ln_beta, a, b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz iteration)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even step, then the odd step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConditioningError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via the continued fraction."""
    if a <= 0 or b <= 0:
        raise PreconditionError(f"betainc needs a, b > 0, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = _exp(ln_front, a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _simpson_step(f, lo, fl, hi, fh, mid, fm, whole, tol, depth):
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    flm, frm = f(lmid), f(rmid)
    left = (mid - lo) / 6.0 * (fl + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fh)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (
        _simpson_step(f, lo, fl, mid, fm, lmid, flm, left, tol / 2.0, depth - 1)
        + _simpson_step(f, mid, fm, hi, fh, rmid, frm, right, tol / 2.0, depth - 1)
    )


def beta_mass_quad(a: float, b: float, lo: float, hi: float) -> float:
    """P(lo <= X <= hi) for X ~ Be(a, b) by adaptive Simpson on the density.

    Interior intervals only (0 < lo <= hi < 1); this is the quadrature
    cross-check of the continued-fraction path.
    """
    if not 0.0 < lo <= hi < 1.0:
        raise PreconditionError(f"beta_mass_quad needs 0 < lo <= hi < 1, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    calls = itertools.count(1)
    ln_beta = log_beta(a, b)

    def density(x: float) -> float:
        if next(calls) > _QUAD_BUDGET:
            raise ConditioningError(
                f"Beta quadrature did not converge within {_QUAD_BUDGET} density "
                f"evaluations for a={a}, b={b} on [{lo}, {hi}]")
        return _density(a, b, ln_beta, x)

    mid = 0.5 * (lo + hi)
    fl, fm, fh = density(lo), density(mid), density(hi)
    whole = (hi - lo) / 6.0 * (fl + 4.0 * fm + fh)
    return _simpson_step(density, lo, fl, hi, fh, mid, fm, whole, _QUAD_TOL, _QUAD_DEPTH)


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
