"""Numerical verification of the valuation theory.

Four strands, each mirrored by an acceptance test:

- a combinatorial identity on Shapley coefficients, checked in exact rational
  arithmetic: (1/n)(1/C(n-1,k) + 1/C(n-1,k+1)) = 1/((n-1) C(n-2,k));
- a Lipschitz transfer bound: for mean-field games U(S) = mean of a scalar
  field g over member embeddings, |SV_i - SV_j| <= L ||e_i - e_j|| where L is
  the field's Lipschitz constant;
- interval bounds P(0.5-eps <= X <= 0.5+eps) for X ~ Be(alpha, beta), all
  computed by ``beta_bounds_report``: exact (a difference of incomplete beta
  values), a quadrature of the density as an independent cross-check, a
  normal approximation, and a linear Taylor polynomial
  (2 eps / (sqrt(2 pi) sigma)) (1 - (0.5-mu)^2 / (3 sigma^2)) with an
  out-of-validity flag; each column is also a ``special`` function;
- a single-classifier perturbation simulator, ``ensemble_perturbation``:
  shifting one of N classifiers by delta moves the ensemble mean by delta/N
  exactly (checked per instance) and flips at most L * delta / N of the
  decisions in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .game import GameSpec, _finite_real, checked_batch, shapley_exact
from .rng import SplitMix64, derive_seed
from .special import beta_mass_quad, betainc, normal_cdf


@dataclass(frozen=True)
class BetaSpec:
    alpha: float
    beta: float

    def __post_init__(self):
        if not all(_finite_real(p) and p > 0 for p in (self.alpha, self.beta)):
            raise PreconditionError("Beta shape parameters must be finite and positive, "
                                    f"got ({self.alpha}, {self.beta})")
        try:   # shapes near 1e-300 or 1e300 underflow or overflow the moments
            sigma, lipschitz_l = self.sigma, perturbation_lipschitz(self)
        except ZeroDivisionError:
            sigma = lipschitz_l = math.nan
        if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(lipschitz_l)):
            raise PreconditionError(
                f"Beta shape ({self.alpha}, {self.beta}) needs a positive finite sigma and "
                f"a finite flip constant L in floating point, got {sigma} and {lipschitz_l}")

    @property
    def mu(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def sigma(self) -> float:
        s = self.alpha + self.beta
        return math.sqrt(self.alpha * self.beta / (s * s * (s + 1.0)))


# ---------------------------------------------------------------------------
# combinatorial identity


def lemma1_identity(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the coefficient identity as exact rationals."""
    if n < 2 or not 0 <= k <= n - 2:
        raise PreconditionError(f"identity needs n >= 2 and 0 <= k <= n-2, got (n={n}, k={k})")
    lhs = Fraction(1, n) * (
        Fraction(1, math.comb(n - 1, k)) + Fraction(1, math.comb(n - 1, k + 1))
    )
    rhs = Fraction(1, (n - 1) * math.comb(n - 2, k))
    return lhs, rhs


def lemma1_sweep(n_max: int = 64) -> dict:
    cases = 0
    failures = []
    for n in range(2, n_max + 1):
        for k in range(0, n - 1):
            lhs, rhs = lemma1_identity(n, k)
            cases += 1
            if lhs != rhs:
                failures.append({"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)})
    return {"n_max": n_max, "cases": cases, "equal": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# Lipschitz games


@dataclass(frozen=True)
class LipschitzGame:
    """Mean-field game over embeddings: U(S) = mean of g over members, U(empty) = 0.

    Every field value must be finite, and the declared Lipschitz constant is
    spot-checked on every embedding pair at construction; a violation means
    the caller's (g, L) declaration is wrong.
    """

    embeddings: np.ndarray
    field: Callable[[np.ndarray], float]
    lipschitz_l: float

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise PreconditionError("embeddings must be a non-empty 2-D array")
        if not (_finite_real(self.lipschitz_l) and self.lipschitz_l > 0):
            raise PreconditionError(
                f"Lipschitz constant must be a finite positive real, got {self.lipschitz_l}")
        object.__setattr__(self, "embeddings", emb)
        gvals = np.array([float(self.field(e)) for e in emb])
        bad = np.flatnonzero(~np.isfinite(gvals))
        if bad.size:   # a NaN or infinite gap would pass the spot check below
            raise PreconditionError(
                f"field value at embedding {bad[0]} is {gvals[bad[0]]}, not a finite real")
        object.__setattr__(self, "_gvals", gvals)
        n = emb.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                gap = abs(gvals[i] - gvals[j])
                allowed = self.lipschitz_l * float(np.linalg.norm(emb[i] - emb[j]))
                if gap > allowed + 1e-12:
                    raise PreconditionError(
                        f"field violates its declared Lipschitz constant on pair ({i}, {j}): "
                        f"|g_i - g_j| = {gap:.6g} > L * dist = {allowed:.6g}"
                    )

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    def game(self) -> GameSpec:
        """The game as a mask-level batch: per mask, the ``math.fsum`` of its
        members' field values in ascending player order over their count."""
        gvals = self._gvals.tolist()

        def scores(masks):
            for mask in masks:
                members = [g for i, g in enumerate(gvals) if mask >> i & 1]
                yield math.fsum(members) / len(members) if members else 0.0

        return GameSpec(n=self.n, batch=checked_batch(self.n, f"the game has {self.n}", scores))


def make_affine_field(w: np.ndarray, c: float = 0.0):
    """g(e) = w . e + c with Lipschitz constant ||w||."""
    w = np.asarray(w, dtype=np.float64)

    def field(e: np.ndarray) -> float:
        return float(np.dot(w, e)) + c

    return field, float(np.linalg.norm(w))


def make_tanh_field(w: np.ndarray, c: float = 0.0):
    """g(e) = tanh(w . e + c); |tanh'| <= 1 gives Lipschitz constant ||w||."""
    affine, lipschitz_l = make_affine_field(w, c)
    return (lambda e: math.tanh(affine(e))), lipschitz_l


def mean_field_shapley(gvals) -> np.ndarray:
    """Closed-form exact Shapley values of the mean-field game.

    For U(S) = mean of g over S and U(empty) = 0, averaging the marginal
    1/(k+1) (g_i - U-of-prefix) terms over permutation positions collapses to

        SV_i = (g_i + (g_i - mean_{j != i} g_j) (H_n - 1)) / n,

    with H_n the n-th harmonic number. Tests verify agreement with full
    enumeration, which makes this the exact-value oracle for games far above
    the enumeration cap.
    """
    g = np.asarray(gvals, dtype=np.float64)
    n = g.shape[0]
    if n == 1:
        return g.copy()
    harmonic = math.fsum(1.0 / m for m in range(1, n + 1))
    total = math.fsum(g)
    rest_mean = (total - g) / (n - 1)
    return (g + (g - rest_mean) * (harmonic - 1.0)) / n


def _uniform_embeddings(seed: int, purpose: str, n: int, d: int) -> np.ndarray:
    """n points drawn uniformly from [-1, 1]^d on the SplitMix64 stream for purpose."""
    rng = SplitMix64(derive_seed(seed, purpose))
    return np.array([[2.0 * rng.uniform() - 1.0 for _ in range(d)] for _ in range(n)])


def theorem1_game(n: int, d: int, seed: int, field: str = "affine") -> LipschitzGame:
    """The seeded game that ``verify theorem1`` checks: weights w drawn from
    [-1, 1]^d, the affine field w . e or the tanh field tanh(w . e), and the
    trial-0 embeddings of ``theorem1_experiment``."""
    if field not in ("affine", "tanh"):
        raise PreconditionError(f"field must be 'affine' or 'tanh', got {field!r}")
    (w,) = _uniform_embeddings(seed, "theorem1:field", 1, d)
    make = make_affine_field if field == "affine" else make_tanh_field
    g, lipschitz_l = make(w)
    return LipschitzGame(_uniform_embeddings(seed, "theorem1:0", n, d), g, lipschitz_l)


def theorem1_experiment(game: LipschitzGame, trials: int, seed: int) -> dict:
    """Exact Shapley values vs the L ||e_i - e_j|| bound, over resampled games.

    Trial 0 uses the provided embeddings; each later trial redraws embeddings
    uniformly from [-1, 1]^d with a seed derived from the trial index, keeping
    the same field and constant. Pairs with identical embeddings define
    ratio = 0. A violation is a ratio above 1 + 1e-9.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    n, d = game.embeddings.shape
    max_ratio = 0.0
    violations = 0
    pairs_checked = 0
    for t in range(trials):
        if t == 0:
            lg = game
        else:
            emb = _uniform_embeddings(seed, f"theorem1:{t}", n, d)
            lg = LipschitzGame(emb, game.field, game.lipschitz_l)
        values = shapley_exact(lg.game()).values
        for i in range(n):
            for j in range(i + 1, n):
                dist = float(np.linalg.norm(lg.embeddings[i] - lg.embeddings[j]))
                diff = abs(values[i] - values[j])
                ratio = 0.0 if dist == 0.0 else diff / (game.lipschitz_l * dist)
                pairs_checked += 1
                if ratio > max_ratio:
                    max_ratio = ratio
                if ratio > 1.0 + 1e-9:
                    violations += 1
    return {
        "n": n,
        "d": d,
        "trials": trials,
        "seed": seed,
        "lipschitz_l": game.lipschitz_l,
        "pairs_checked": pairs_checked,
        "max_ratio": max_ratio,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# Beta interval bounds


def beta_bounds_report(spec: BetaSpec, eps: float) -> dict:
    """The interval mass P(0.5-eps <= X <= 0.5+eps) for X ~ Be(alpha, beta), four ways.

    The polynomial's flag fires when it cannot be trusted: leading factor
    above 1, value outside [0, 1], or overshooting the exact or normal mass
    by more than 10% relative.
    """
    if not 0.0 < eps < 0.5:
        raise PreconditionError(f"epsilon must lie in (0, 0.5), got {eps}")
    a, b, mu, sigma = spec.alpha, spec.beta, spec.mu, spec.sigma
    exact = betainc(a, b, 0.5 + eps) - betainc(a, b, 0.5 - eps)
    normal = normal_cdf((0.5 + eps - mu) / sigma) - normal_cdf((0.5 - eps - mu) / sigma)
    leading = 2.0 * eps / (math.sqrt(2.0 * math.pi) * sigma)
    poly = leading * (1.0 - (0.5 - mu) ** 2 / (3.0 * sigma * sigma))
    flagged = (leading > 1.0 or not 0.0 <= poly <= 1.0
               or poly > 1.1 * normal or poly > 1.1 * exact)
    return {
        "alpha": a,
        "beta": b,
        "epsilon": eps,
        "mu": mu,
        "sigma": sigma,
        "exact": exact,
        "quad": beta_mass_quad(a, b, 0.5 - eps, 0.5 + eps),
        "normal": normal,
        "poly": poly,
        "poly_leading_factor": leading,
        "poly_out_of_validity": flagged,
    }


# ---------------------------------------------------------------------------
# perturbation simulator


def perturbation_lipschitz(spec: BetaSpec) -> float:
    """The closing-form constant L = (2/(sqrt(2 pi) sigma))(1 - (0.5-mu)^2/(3 sigma^2))."""
    mu, sigma = spec.mu, spec.sigma
    return (2.0 / (math.sqrt(2.0 * math.pi) * sigma)) * (
        1.0 - (0.5 - mu) ** 2 / (3.0 * sigma * sigma)
    )


def ensemble_perturbation(spec: BetaSpec, n_classifiers: int, num_instances: int,
                          k: int, delta: float, seed: int, trials: int) -> dict:
    """Simulated decision-flip fractions against the L * delta / N bound.

    Per trial, per-instance ensemble means are drawn from Be(alpha, beta) and
    classifier k is shifted by +delta and by -delta (the two flip directions
    are reported separately): an up-flip crosses 0.5 from below under the
    +delta shift, a down-flip from above under -delta. Each direction's flip
    fraction equals the observed |accuracy change| for that shift. The
    expected one-direction fraction is half the two-sided bound, reported as
    predicted_flip_fraction. identity_max_abs_err is the largest deviation
    from |f' - f| = |h_k' - h_k| / N over up to 10,000 instances of N
    classifiers drawn from Be(alpha, beta), k shifted by +delta and clipped to
    [0, 1]: rounding noise only, a few 1e-16 in practice.
    """
    if n_classifiers < 1:
        raise PreconditionError(f"need at least one classifier, got {n_classifiers}")
    if not 0 <= k < n_classifiers:
        raise PreconditionError(f"classifier index {k} out of range for N={n_classifiers}")
    if not 0.0 <= delta <= 1.0:
        raise PreconditionError(f"delta must lie in [0, 1], got {delta}")
    if num_instances < 1:
        raise PreconditionError(f"num_instances must be >= 1, got {num_instances}")
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    eps = delta / n_classifiers
    lipschitz_l = perturbation_lipschitz(spec)
    bound = lipschitz_l * eps
    up_fracs = []
    down_fracs = []
    exceed_count = 0
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, f"perturbation:{t}"))
        f = rng.beta(spec.alpha, spec.beta, size=num_instances)
        up = float(np.count_nonzero((f > 0.5 - eps) & (f <= 0.5)) / num_instances)
        down = float(np.count_nonzero((f > 0.5) & (f <= 0.5 + eps)) / num_instances)
        up_fracs.append(up)
        down_fracs.append(down)
        if up > bound or down > bound:
            exceed_count += 1
    identity_instances = min(num_instances, 10_000)
    rng = np.random.default_rng(derive_seed(seed, "perturbation:identity"))
    h = rng.beta(spec.alpha, spec.beta, size=(identity_instances, n_classifiers))
    h_pert = h.copy()
    h_pert[:, k] = np.minimum(1.0, h_pert[:, k] + delta)
    realized = np.abs(h_pert[:, k] - h[:, k])
    shift = np.abs(h_pert.mean(axis=1) - h.mean(axis=1))
    identity_err = float(np.max(np.abs(shift - realized / n_classifiers)))
    return {
        "alpha": spec.alpha,
        "beta": spec.beta,
        "n_classifiers": n_classifiers,
        "num_instances": num_instances,
        "k": k,
        "delta": delta,
        "trials": trials,
        "seed": seed,
        "epsilon": eps,
        "lipschitz_l": lipschitz_l,
        "bound": bound,
        "predicted_flip_fraction": 0.5 * bound,
        "up_flips": {
            "mean": math.fsum(up_fracs) / trials,
            "max": max(up_fracs),
        },
        "down_flips": {
            "mean": math.fsum(down_fracs) / trials,
            "max": max(down_fracs),
        },
        "exceed_count": exceed_count,
        "identity_instances": identity_instances,
        "identity_max_abs_err": identity_err,
    }
