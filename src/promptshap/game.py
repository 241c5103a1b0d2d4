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
- ``loo_values``: leave-one-out differences over n+1 coalitions.

Cost model: an engine asks the game's mask-level ``batch`` for every
coalition it needs in one call, each distinct coalition once: exact all 2^n
masks in ascending order, leave-one-out the full set and then the full set
minus each player, and Monte Carlo U(full), U(empty), then every distinct
prefix in first-appearance order. A per-coalition oracle without a batch of
its own is mapped over the masks. Every utility must be a finite real number
(not a bool); any other fails as a ``UtilityOracleError`` naming its
coalition. Exact sums each player's terms as numpy arrays over the masks
without it, into one ``math.fsum``.

Monte Carlo draws all T permutations at once as a (T, n) table of small
unsigned ints (``SplitMix64.shuffles``), then makes numpy passes over it in
chunks of ``_CHUNK`` permutations. A marginal U(S + p) - U(S) depends only on
the player p and the set S of players before it, so without truncation one
pass turns each chunk into prefix masks by a cumulative sum of
``1 << player`` (int64 up to 63 players, Python ints beyond), collects the
distinct ones, and counts each step by the key ``p << n | S`` (int64 up to 57
players, Python ints beyond), merging each chunk's counts into one sorted
array. After the one batch call each distinct key's marginal is found by
binary search in the sorted masks, once. Each player's mean and squared
deviations then come from (distinct marginal, count) pairs, summed exactly
and rounded once, which gives the bits ``math.fsum`` gives over all T
marginals. Memory is the permutation table, the distinct masks and keys, and
chunk temporaries of about ``_CHUNK * n`` items: nothing of size n * T. With
truncation on, whether a prefix is needed depends on the utilities before
it, so each scan walks its permutation in Python, asks for each new prefix as
a batch of one and records its marginals in an (n, T) table, whose columns
go through the same statistics.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .coalition import Coalition
from .errors import CapacityError, PreconditionError, PromptShapError, UtilityOracleError
from .rng import SplitMix64

UtilityFn = Callable[[Coalition], float]
# (masks, n) -> the utility of each mask, in order. A failure is raised after
# the utilities of the masks before it, so a generator names the failing
# coalition by how far it got.
BatchFn = Callable[[Sequence[int], int], Iterable[float]]

DEFAULT_EXACT_CAP = 20
# permutations per chunk of the Monte Carlo array passes
_CHUNK = 512


class Method(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "montecarlo"
    LEAVE_ONE_OUT = "loo"


def batch_of(utility: UtilityFn) -> BatchFn:
    """``utility.batch`` if the oracle has one, else ``utility`` mapped over the masks."""
    batch = getattr(utility, "batch", None)
    if batch is not None:
        return batch

    def mapped(masks: Sequence[int], n: int):
        for mask in masks:
            yield utility(Coalition(mask, n))

    return mapped


@dataclass(frozen=True)
class GameSpec:
    """A cooperative game: player count, deterministic utility oracle, and the
    declared utility of the empty coalition (the oracle must agree on it).

    The engines call only ``batch``, which defaults to ``batch_of(utility)``.
    ``dataclasses.replace(game, utility=...)`` copies the batch already set,
    so it keeps the fast path of the oracle it replaces."""

    n: int
    utility: UtilityFn
    u_empty: float = 0.0
    batch: Optional[BatchFn] = None

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"game needs at least one player, got n={self.n}")
        if self.batch is None:
            object.__setattr__(self, "batch", batch_of(self.utility))


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


def run_batch(batch: BatchFn, masks: Sequence[int], n: int) -> tuple[list, Optional[Exception]]:
    """``batch(masks, n)`` as a list, and the exception that cut it short, if
    any. The utilities before a failure are kept, so ``masks[len(values)]`` is
    the coalition that failed; a batch that yields too few or too many
    utilities fails on the first coalition without one, or on the last."""
    values: list = []
    try:
        values.extend(batch(masks, n))
    except Exception as exc:
        return values, exc
    if len(values) == len(masks):
        return values, None
    exc = UtilityOracleError(
        f"batch oracle gave {len(values)} utilities for {len(masks)} coalitions")
    del values[len(masks) - 1:]
    return values, exc


def _utilities(game: GameSpec, masks: Sequence[int], context=None) -> list:
    """The game's utilities of ``masks`` from one batch call; a failure, or a
    utility that is not a finite real number, names its coalition, plus the
    details ``context(mask)`` gives."""
    values, exc = run_batch(game.batch, masks, game.n)
    bad = _first_unfit(values)
    if bad is not None:
        exc = UtilityOracleError(
            f"utility oracle gave {values[bad]!r} on coalition "
            f"{Coalition(masks[bad], game.n).to_hex()}, not a finite real number")
        del values[bad:]
    if exc is not None:
        mask = masks[len(values)]
        raise _failure(exc, Coalition(mask, game.n), **(context(mask) if context else {}))
    return values


def _first_unfit(values: list) -> Optional[int]:
    """The index of the first utility that is not a finite real number (a
    bool is not one), or None."""
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return None
    return next((i for i, value in enumerate(values) if not _finite_real(value)), None)


def _finite_real(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:   # an int past the float range
        return False


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
    exact_cap = _integer("exact_cap", exact_cap)
    if n > exact_cap:
        raise CapacityError(
            f"n={n} exceeds the exact enumeration cap {exact_cap}; "
            "use shapley_montecarlo for larger games",
            n=n,
            exact_cap=exact_cap,
        )
    table = _utilities(game, range(1 << n))
    utilities = np.array(table, dtype=np.float64)
    weights = np.array([float(shapley_weight(n, s)) for s in range(n)])
    masks = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        popcount += masks >> i & 1
    values = []
    for i in range(n):
        lo = masks[masks >> i & 1 == 0]
        # elementwise IEEE operations: each term has the bits of the scalar formula
        terms = weights[popcount[lo]] * (utilities[lo | 1 << i] - utilities[lo])
        values.append(math.fsum(terms.tolist()))
    return ShapleyResult(
        values=tuple(values),
        stderr=(0.0,) * n,
        method=Method.EXACT,
        samples=0,
        seed=None,
        u_full=table[-1],
        u_empty=table[0],
    )


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integer is a ``PreconditionError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PreconditionError(f"{name} must be an integer, got {value!r}")


def shapley_montecarlo(game: GameSpec, permutations: int, truncation_tol: float = 0.0,
                       seed: int = 0) -> ShapleyResult:
    """The permutation estimator: each player's mean marginal over
    ``permutations`` orderings, drawn as successive shuffles of one list from
    ``SplitMix64(seed)``, with the standard error of that mean.

    Evaluation order: one batch asks for U(full), U(empty), then every other
    distinct prefix in the order the permutations first reach it, row by row.
    With ``truncation_tol > 0`` a scan stops at the first prefix whose utility
    is within the tolerance of U(full), and the players after it get a
    marginal of 0; whether a prefix is needed then depends on the utilities
    before it, so each new prefix is a batch of one, asked for when its scan
    reaches it. ``truncation_tol = 0`` scans every permutation in full and
    keeps the estimator unbiased.

    The statistics are those of the T marginals of each player, bit for bit:
    the mean is their ``math.fsum`` divided by T, and the standard error sums
    squared deviations made by C ``pow``, as ``(x - mean) ** 2`` on floats
    does (numpy's ``** 2`` multiplies ``x * x``, which rounds some squares
    differently). Without truncation the engine gets them from counts: how
    many permutations place each player p right after each set S, so each
    distinct marginal is computed, squared and summed once, times its count.
    ``math.fsum`` is correctly rounded whatever the order of its terms, so an
    exact sum of (value, count) pairs, rounded once, is the same float.

    A utility that is not a finite real number fails as a
    ``UtilityOracleError`` naming its coalition, its permutation index and
    prefix; a player whose sums leave the float range, from finite but huge
    utilities, fails as a ``PreconditionError`` naming the player.
    """
    permutations = _integer("permutation count", permutations)
    seed = _integer("seed", seed)
    if permutations < 1:
        raise PreconditionError(f"permutation count must be >= 1, got {permutations}")
    if isinstance(truncation_tol, bool) or not isinstance(truncation_tol, numbers.Real):
        raise PreconditionError(f"truncation_tol must be a number, got {truncation_tol!r}")
    if not truncation_tol >= 0:  # NaN fails this too
        raise PreconditionError(f"truncation_tol must be >= 0, got {truncation_tol}")
    n = game.n
    full = (1 << n) - 1
    rng = SplitMix64(seed)
    if truncation_tol > 0:
        u_full, u_empty = _utilities(game, [full, 0])
        # marginals[p, t]: player p's marginal in permutation t; 0 where truncated
        marginals = np.zeros((n, permutations))
        # utilities by mask: each distinct coalition is asked for once
        seen = {full: u_full, 0: u_empty}
        # U(empty) already within the tolerance of U(full) truncates every scan at once
        scanned = 0 if abs(u_empty - u_full) <= truncation_tol else permutations
        for t, row in enumerate(rng.shuffles(n, scanned)):
            players = row.tolist()
            mask = 0
            prev = u_empty
            for pos, p in enumerate(players):
                mask |= 1 << p
                cur = seen.get(mask)
                if cur is None:     # whether a prefix is needed depends on those before it
                    [cur] = _utilities(game, [mask], lambda m: {
                        "permutation_index": t, "prefix": tuple(players[: pos + 1])})
                    seen[mask] = cur
                marginals[p, t] = cur - prev
                prev = cur
                if abs(cur - u_full) <= truncation_tol:
                    break  # remaining marginals stay 0
        columns = ((column, None) for column in marginals)
    else:
        order = rng.shuffles(n, permutations)
        # one pass: each distinct prefix in first-appearance order, and how
        # many permutations place player p right after the set S, counted by
        # the key p << n | S in ascending order
        dtype = _int_dtype(n + (n - 1).bit_length())
        keys, counts = np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64)

        def chunks():
            nonlocal keys, counts
            for start, prefixes in _prefixes(order):
                steps = order[start:start + len(prefixes)].astype(dtype)
                steps <<= n
                steps[:, 1:] |= prefixes[:, :-1].astype(dtype, copy=False)
                keys, counts = _merge(keys, counts, *np.unique(steps, return_counts=True))
                yield prefixes.ravel().tolist()

        masks = list(dict.fromkeys(chain((full, 0), chain.from_iterable(chunks()))))
        utilities = _utilities(game, masks, lambda m: _first_reach(order, m))
        u_full, u_empty = utilities[0], utilities[1]
        # the utilities in ascending mask order, for a binary search per coalition
        sorted_masks = np.array(masks, dtype=_int_dtype(n))
        rank = np.argsort(sorted_masks)
        sorted_masks, by_mask = sorted_masks[rank], np.array(utilities, dtype=np.float64)[rank]
        del masks, utilities, rank
        columns = _key_columns(n, keys, counts, sorted_masks, by_mask)
    values, stderr = [], []
    for player, (column, weights) in enumerate(columns):
        try:
            mean, error = _statistics(column, weights, permutations)
        except OverflowError:
            raise PreconditionError(
                f"player {player}'s Monte Carlo sums overflow float64; "
                "the utilities are too large to average", player=player) from None
        values.append(mean)
        stderr.append(error)
    return ShapleyResult(
        values=tuple(values),
        stderr=tuple(stderr),
        method=Method.MONTE_CARLO,
        samples=permutations,
        seed=seed,
        u_full=u_full,
        u_empty=u_empty,
    )


def _int_dtype(bits: int):
    """int64 while every value of ``bits`` bits fits in one, else Python ints."""
    return np.int64 if bits <= 63 else object


def _prefixes(order: np.ndarray):
    """(start, masks) per chunk of at most ``_CHUNK`` rows of the permutation
    table ``order``: ``masks[t, k]`` is the set of the first k + 1 players of
    permutation ``start + t``."""
    dtype = _int_dtype(order.shape[1])
    for start in range(0, len(order), _CHUNK):
        masks = order[start:start + _CHUNK].astype(dtype)
        np.left_shift(1, masks, out=masks)
        yield start, np.cumsum(masks, axis=1, out=masks)


def _merge(keys: np.ndarray, counts: np.ndarray, more: np.ndarray, more_counts: np.ndarray):
    """The sorted distinct ``keys`` with their ``counts``, after adding the
    sorted distinct ``more`` with theirs."""
    at = np.searchsorted(keys, more)
    found = at < len(keys)
    found[found] = keys[at[found]] == more[found]
    counts[at[found]] += more_counts[found]
    new = ~found
    if new.any():
        keys = np.insert(keys, at[new], more[new])
        counts = np.insert(counts, at[new], more_counts[new])
    return keys, counts


def _key_columns(n: int, keys: np.ndarray, counts: np.ndarray, masks: np.ndarray,
                 utilities: np.ndarray):
    """Per player p, the marginal U(S + p) - U(S) of each of its sorted keys
    ``p << n | S``, once per key, and the keys' counts; ``utilities[i]`` is
    U(``masks[i]``), with ``masks`` ascending."""
    full = (1 << n) - 1
    bounds = np.searchsorted(keys, [p << n for p in range(n + 1)]).tolist()
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        before = (keys[lo:hi] & full).astype(masks.dtype)
        marginals = utilities[np.searchsorted(masks, before | 1 << p)]
        with np.errstate(over="ignore"):    # an inf marginal fails in _statistics
            marginals -= utilities[np.searchsorted(masks, before)]
        yield marginals, counts[lo:hi]


def _statistics(marginals: np.ndarray, counts: Optional[np.ndarray],
                permutations: int) -> tuple[float, float]:
    """One player's mean marginal over ``permutations`` and its standard
    error, where marginal ``marginals[i]`` occurs ``counts[i]`` times (once
    each if ``counts`` is None); ``OverflowError`` if a marginal or a sum
    leaves the float range.

    Equal marginals merge into one (value, count) pair. Each sum is exact and
    rounded once (``_exact_sum``), which is what ``math.fsum`` over every
    marginal returns, and each squared deviation is C ``pow`` of ``value -
    mean``, as ``(x - mean) ** 2`` on floats is, once per distinct value."""
    if not np.isfinite(marginals).all():
        raise OverflowError("a marginal past the float range")
    if counts is None:
        marginals, weights = np.unique(marginals, return_counts=True)
    else:
        marginals, inverse = np.unique(marginals, return_inverse=True)
        weights = np.bincount(inverse, counts)
    weights = weights.astype(np.float64)
    mean = _exact_sum(marginals, weights) / permutations
    if permutations == 1:
        return mean, 0.0
    squares = np.array(list(map(pow, (marginals - mean).tolist(), repeat(2))))
    return mean, math.sqrt(_exact_sum(squares, weights) / (permutations - 1) / permutations)


def _exact_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """The sum of ``weights * values`` rounded once to the nearest float;
    ``OverflowError`` if it, or a term of it, leaves the float range. The
    weights are integers of at most 2^36: permutation counts, far below that
    for any permutation table that fits in memory.

    Each value's 53-bit significand splits into three signed parts of at
    most 2^17 in magnitude, so each weight times each part is exact, and so
    is its scaling, because every finite float is a multiple of 2^-1074.
    ``math.fsum`` of these exact terms is their correctly rounded sum, in any
    order (Shewchuk 1997)."""
    significands, exponents = np.frexp(values)
    rest = np.ldexp(significands, 53)            # integers below 2^53 in magnitude
    terms = []
    with np.errstate(over="ignore"):             # a term past the float range is inf
        for shift in (36, 18):
            part = np.round(np.ldexp(rest, -shift))
            rest -= np.ldexp(part, shift)
            terms.append(np.ldexp(weights * part, exponents + (shift - 53)))
        terms.append(np.ldexp(weights * rest, exponents - 53))
    terms = np.concatenate(terms)
    if not np.isfinite(terms).all():
        raise OverflowError("a weighted term past the float range")
    return math.fsum(terms.tolist())    # of finite terms: OverflowError past the range


def _first_reach(order: np.ndarray, target: int) -> dict:
    """Where the permutations in ``order`` first reach ``target``: the
    permutation index and its prefix; none for U(full) and U(empty), which
    are asked for before any scan."""
    n = order.shape[1]
    if target in (0, (1 << n) - 1):
        return {}
    for start, prefixes in _prefixes(order):
        hits = np.flatnonzero(prefixes == target)
        if len(hits):
            t, pos = divmod(int(hits[0]), n)
            return {"permutation_index": start + t,
                    "prefix": tuple(order[start + t, :pos + 1].tolist())}
    return {}


def loo_values(game: GameSpec) -> ShapleyResult:
    """U(full) - U(full minus i) per player, from one batch of the n+1
    coalitions. The result echoes the game's declared u_empty. Only at n = 1
    is the empty coalition evaluated, as the full set minus player 0."""
    n = game.n
    full = (1 << n) - 1
    u_full, *rest = _utilities(game, [full, *(full & ~(1 << i) for i in range(n))])
    values = tuple(u_full - u for u in rest)
    return ShapleyResult(
        values=values,
        stderr=(0.0,) * n,
        method=Method.LEAVE_ONE_OUT,
        samples=0,
        seed=None,
        u_full=u_full,
        u_empty=game.u_empty,
    )
