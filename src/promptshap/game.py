"""Shapley value engines over coalition utility oracles.

Three estimators share the ``ShapleyResult`` container:

- ``shapley_exact``: full enumeration of the 2^n coalitions, weighting each
  marginal contribution by 1/(n*C(n-1,|S|)). Per-player sums use ``math.fsum``
  so the efficiency axiom (values summing to U(full) - U(empty)) holds to
  1e-9 even at the enumeration cap.
- ``shapley_montecarlo``: uniform random permutations from the portable
  SplitMix64 generator, scanned left to right; optional truncation zeroes the
  remaining marginals once a prefix utility is within ``truncation_tol`` of
  the full-set utility. ``truncation_tol = 0`` disables truncation entirely,
  keeping the estimator unbiased.
- ``loo_values``: leave-one-out differences, exactly n+1 oracle calls.

Cost model: every engine makes one ``Coalition``-level oracle call per
distinct coalition it evaluates: 2^n exact, n+1 leave-one-out, and for Monte
Carlo U(full), U(empty), then each prefix the first time a permutation
reaches it. The oracle is deterministic, so Monte Carlo keeps each utility it
asked for in a dict keyed on the mask: at most min(2^n, T*n+2) floats for T
permutations, no more than a configured utility cache already holds.
Permutations come from the block-mixed SplitMix64, and Monte Carlo marginals
live in one ``array('d')`` per player: 8 bytes per marginal, and a store is a
plain item write. A list of floats would hold a 24-byte object per marginal.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .coalition import Coalition
from .errors import CapacityError, PreconditionError, PromptShapError, UtilityOracleError
from .rng import SplitMix64

UtilityFn = Callable[[Coalition], float]

DEFAULT_EXACT_CAP = 20


class Method(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "montecarlo"
    LEAVE_ONE_OUT = "loo"


@dataclass(frozen=True)
class GameSpec:
    """A cooperative game: player count, deterministic utility oracle, and the
    declared utility of the empty coalition (the oracle must agree on it)."""

    n: int
    utility: UtilityFn
    u_empty: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"game needs at least one player, got n={self.n}")


@dataclass(frozen=True)
class ShapleyResult:
    values: tuple[float, ...]
    stderr: tuple[float, ...]
    method: Method
    samples: int
    seed: Optional[int]
    u_full: float
    u_empty: float

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json_dict(self, ids: Optional[Sequence[str]] = None) -> dict:
        n = self.n
        if ids is None:
            ids = [f"p{i}" for i in range(n)]
        ids = list(ids)
        if len(ids) != n:
            raise PreconditionError(f"got {len(ids)} player ids for {n} players")
        doc = {
            "method": self.method.value,
            "n": n,
            "samples": self.samples,
            "u_full": self.u_full,
            "u_empty": self.u_empty,
            "players": [
                {"id": ids[i], "value": self.values[i], "stderr": self.stderr[i]}
                for i in range(n)
            ],
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


def _failure(exc: Exception, coalition: Coalition, **context) -> PromptShapError:
    """The error to raise for an oracle failure on ``coalition``: a
    ``PromptShapError`` gains the coalition, then ``context``, as details it
    lacks; any other exception is wrapped in a ``UtilityOracleError``."""
    if not isinstance(exc, PromptShapError):
        wrapped = UtilityOracleError(
            f"utility oracle failed on coalition {coalition.to_hex()}: {exc}"
        )
        wrapped.__cause__ = exc
        exc = wrapped
    for key, value in {"coalition": coalition.to_hex(), **context}.items():
        exc.details.setdefault(key, value)
    return exc


def _eval(game: GameSpec, coalition: Coalition) -> float:
    """Evaluate the oracle, attaching the coalition to any failure."""
    try:
        return game.utility(coalition)
    except Exception as exc:
        raise _failure(exc, coalition)


def shapley_weight(n: int, s: int) -> Fraction:
    """Exact coefficient 1/(n*C(n-1,s)) applied to a size-s coalition's marginal."""
    if n < 1 or not 0 <= s <= n - 1:
        raise PreconditionError(f"shapley_weight undefined for (n={n}, s={s})")
    return Fraction(1, n * math.comb(n - 1, s))


def shapley_exact(game: GameSpec, exact_cap: int = DEFAULT_EXACT_CAP) -> ShapleyResult:
    """Evaluate all 2^n coalitions in ascending mask order (the documented
    deterministic evaluation order), then sum each player's weighted marginals
    with ``math.fsum``."""
    n = game.n
    if n > exact_cap:
        raise CapacityError(
            f"n={n} exceeds the exact enumeration cap {exact_cap}; "
            "use shapley_montecarlo for larger games",
            n=n,
            exact_cap=exact_cap,
        )
    table = [_eval(game, Coalition(mask, n)) for mask in range(1 << n)]
    weights = [float(shapley_weight(n, s)) for s in range(n)]
    popcount = [mask.bit_count() for mask in range(1 << n)]
    values = tuple(
        math.fsum(
            weights[popcount[mask]] * (table[mask | bit] - table[mask])
            for mask in range(1 << n)
            if not mask & bit
        )
        for bit in (1 << i for i in range(n))
    )
    return ShapleyResult(
        values=values,
        stderr=(0.0,) * n,
        method=Method.EXACT,
        samples=0,
        seed=None,
        u_full=table[-1],
        u_empty=table[0],
    )


def shapley_montecarlo(game: GameSpec, permutations: int, truncation_tol: float = 0.0,
                       seed: int = 0) -> ShapleyResult:
    if permutations < 1:
        raise PreconditionError(f"permutation count must be >= 1, got {permutations}")
    if not truncation_tol >= 0:  # NaN fails this too
        raise PreconditionError(f"truncation_tol must be >= 0, got {truncation_tol}")
    n = game.n
    u_full = _eval(game, Coalition.full(n))
    u_empty = _eval(game, Coalition.empty(n))
    truncate = truncation_tol > 0
    utility = game.utility
    # utilities by mask: each distinct coalition is asked for once
    seen = {(1 << n) - 1: u_full, 0: u_empty}
    rng = SplitMix64(seed)
    perm = list(range(n))
    # marginals[p][t]: player p's marginal in permutation t; 0 where truncated
    marginals = [array("d", [0.0]) * permutations for _ in range(n)]
    # U(empty) already within the tolerance of U(full) truncates every scan at once
    scanned = 0 if truncate and abs(u_empty - u_full) <= truncation_tol else permutations
    for t in range(scanned):
        rng.shuffle(perm)
        mask = 0
        prev = u_empty
        for pos, p in enumerate(perm):
            mask |= 1 << p
            cur = seen.get(mask)
            if cur is None:
                coalition = Coalition(mask, n)
                try:
                    cur = seen[mask] = utility(coalition)
                except Exception as exc:
                    raise _failure(exc, coalition, permutation_index=t,
                                   prefix=tuple(perm[: pos + 1]))
            marginals[p][t] = cur - prev
            prev = cur
            if truncate and abs(cur - u_full) <= truncation_tol:
                break  # remaining marginals stay 0
    values = []
    stderr = []
    for column in marginals:
        mean = math.fsum(column) / permutations
        values.append(mean)
        if permutations == 1:
            stderr.append(0.0)
        else:
            var = math.fsum((x - mean) ** 2 for x in column) / (permutations - 1)
            stderr.append(math.sqrt(var / permutations))
    return ShapleyResult(
        values=tuple(values),
        stderr=tuple(stderr),
        method=Method.MONTE_CARLO,
        samples=permutations,
        seed=seed,
        u_full=u_full,
        u_empty=u_empty,
    )


def loo_values(game: GameSpec) -> ShapleyResult:
    """U(full) - U(full minus i) per player; never evaluates the empty coalition,
    so the result echoes the game's declared u_empty."""
    n = game.n
    full = Coalition.full(n)
    u_full = _eval(game, full)
    values = tuple(u_full - _eval(game, Coalition(full.mask & ~(1 << i), n))
                   for i in range(n))
    return ShapleyResult(
        values=values,
        stderr=(0.0,) * n,
        method=Method.LEAVE_ONE_OUT,
        samples=0,
        seed=None,
        u_full=u_full,
        u_empty=game.u_empty,
    )
