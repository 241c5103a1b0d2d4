"""Shapley value engines over coalition utility oracles.

Three estimators share the ``ShapleyResult`` container:

- ``shapley_exact``: full enumeration of the 2^n coalitions, weighting each
  marginal contribution by 1/(n*C(n-1,|S|)). Per-player sums use ``math.fsum``
  so the efficiency axiom (values summing to U(full) - U(empty)) holds to
  1e-9 even at the enumeration cap.
- ``shapley_montecarlo``: uniform random permutations from the portable
  SplitMix64 generator, each the order of its own n random keys, scanned
  left to right; optional truncation zeroes the remaining marginals once a
  prefix utility is within ``truncation_tol`` of the full-set utility.
  ``truncation_tol = 0`` disables truncation entirely, keeping the
  estimator unbiased.
- ``loo_values``: leave-one-out differences over n+1 coalitions.

Cost model: an engine asks the game's mask-level ``batch`` for every
coalition it needs in one call, each distinct coalition once: exact all 2^n
masks in ascending order, leave-one-out the full set and then the full set
minus each player, and Monte Carlo U(full), U(empty), then every distinct
prefix in first-appearance order (with truncation, U(full) and U(empty) and
then one batch per prefix position per chunk of permutations).
``matrix_utility``, the live ``augmentation_utility`` and
``theory.LipschitzGame.game`` return an ``Oracle`` or a game whose ``batch``
the game takes as it is; any other per-coalition ``utility`` (a user
function, or a wrapper around an ``Oracle``) is mapped over the masks one
coalition at a time (``batch_of``), so a wrapper sees every call.

The batch contract lives here. Each library oracle's batch is its scorer of
masks behind ``checked_batch``, which refuses a player count other than the
oracle's (``ConsistencyError``) and then any mask with a bit outside its
players (``coalition.check_masks``, ``PreconditionError``), before any
scoring or request. Every utility goes through ``finite_utility``, in
``run_batch`` and before ``cache.cached_utility`` stores it: a finite real
number (not a bool), kept if an ``int`` or a ``float`` and made a ``float``
otherwise; any other fails as a ``UtilityOracleError`` naming its coalition.
``finite_numbers`` is the rule's one-pass form over a list (``run_batch``,
the utility cache, and the values, model and embedding-reply readers).
Exact sums each player's terms as numpy arrays over the masks without it,
into one ``math.fsum``.

Monte Carlo draws all T permutations at once as a (T, n) table of small
unsigned ints (``SplitMix64.shuffles``: row t sorts outputs t*n + 1 to
t*n + n of the seeded stream), asks for every utility it needs,
then counts. A cumulative sum of ``1 << player`` (int64 up to 63 players,
Python ints beyond) turns each chunk of ``_CHUNK`` permutations into prefix
masks (``_prefixes``). Without truncation, one pass finds the distinct
prefixes in the order the scans first reach them, and they are the one
batch. When the 2^n coalitions are no more than the T*n prefixes, each
chunk lowers a table of every coalition's first scan position t*n + k with
``np.minimum.at`` (``_first_appearances``), the pass stops once every
coalition is in, as no later prefix can be new, and the reached masks
sorted by position are the batch; a larger game, with fewer prefixes than
coalitions, adds each chunk's prefixes to a first-appearance dict. With
truncation, whether a prefix is needed depends on the utilities before it,
so each chunk's scans go forward together, position by position: the
distinct new k-th prefixes of the scans still running are one batch, in row
order, and a scan stops at the first prefix within the tolerance. Either way
a failure names the first scan to reach its coalition (``_first_reach``).
A marginal U(S + p) - U(S) depends only on the player p and the set S of
players before it, so the engine keeps no marginals but counts the steps
the scans take, up to where each stopped, by the key ``p << n | S`` (int64
up to 57 players, Python ints beyond): one pass for both modes
(``_tally``). When all 2^n coalitions were asked for, each chunk's steps
are counted straight into a table of ``n << n`` int64 slots indexed by key
(``np.add.at``), whose nonzero slots are the ascending keys and counts;
otherwise one ``np.unique`` per chunk counts them and the counts merge into
one sorted array of distinct keys. Each key's marginal is found once: by
mask in a table of 2^n utilities when 2^n <= T*n, in either mode, and
otherwise by binary search in the sorted masks. Each player's mean and
squared deviations come from (distinct marginal, count) pairs, plus one
pair of 0 for the permutations that stopped before the player, summed
exactly in Python integers and rounded once: the bits ``math.fsum`` gives
over all T marginals. Memory is the permutation table, the distinct
masks and their utilities, the keys and counts (or the slot table: 393 KB at
n = 12, about the size of the sorted keys and counts it replaces), and
chunk temporaries of about ``_CHUNK * n`` items: nothing of size n * T.
When 2^n <= T*n, 8 * 2^n bytes of first positions and 8 * 2^n bytes of
utilities by mask take the place of the sorted masks: 64 KB at n = 12.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .coalition import Coalition, check_masks, hex_keys
from .errors import (CapacityError, ConsistencyError, PreconditionError, PromptShapError,
                     UtilityOracleError)
from .rng import SplitMix64

UtilityFn = Callable[[Coalition], float]
# (masks, n) -> the utility of each mask, in order. A failure is raised after
# the utilities of the masks before it, so a generator names the failing
# coalition by how far it got.
BatchFn = Callable[[Sequence[int], int], Iterable[float]]

DEFAULT_EXACT_CAP = 20
# permutations per chunk of the Monte Carlo array passes
_CHUNK = 512
# the least normal float
_TINY = sys.float_info.min
# the largest finite float
_MAX = sys.float_info.max


class Method(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "montecarlo"
    LEAVE_ONE_OUT = "loo"


@dataclass(frozen=True, slots=True)
class Oracle:
    """A utility oracle built on a mask-level ``batch``. Called on one
    coalition it gives that coalition's utility through the batch; a wrapper
    around it is a plain function, which ``batch_of`` maps instead."""

    batch: BatchFn

    def __call__(self, coalition: Coalition) -> float:
        [utility] = self.batch([coalition.mask], coalition.n)
        return utility


def batch_of(utility: UtilityFn) -> BatchFn:
    """The ``batch`` of an ``Oracle``; any other oracle mapped over the masks."""
    if isinstance(utility, Oracle):
        return utility.batch

    def mapped(masks: Sequence[int], n: int):
        for mask in masks:
            yield utility(Coalition(mask, n))

    return mapped


def checked_batch(players: int, source: str,
                  score: Callable[[Sequence[int]], Iterable[float]]) -> BatchFn:
    """A library oracle's batch: ``score(masks)`` once ``n`` is ``players`` (else
    a ``ConsistencyError`` naming ``source``) and ``check_masks`` passes."""

    def batch(masks: Sequence[int], n: int):
        if n != players:
            raise ConsistencyError(f"coalition is over {n} players but {source}")
        check_masks(masks, n)
        return score(masks)

    return batch


@dataclass(frozen=True)
class GameSpec:
    """A cooperative game: player count, deterministic utility oracle, and the
    declared utility of the empty coalition (the oracle must agree on it).

    The oracle is a mask-level ``batch``, or a ``utility`` whose batch
    ``batch_of`` finds when no batch is given; a game with neither is a
    ``PreconditionError``. The engines call only ``batch``, so
    ``dataclasses.replace(game, utility=...)`` keeps the batch already set."""

    n: int
    utility: Optional[UtilityFn] = None
    u_empty: float = 0.0
    batch: Optional[BatchFn] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("player count", self.n))
        if self.n < 1:
            raise PreconditionError(f"game needs at least one player, got n={self.n}")
        if self.batch is None:
            if self.utility is None:
                raise PreconditionError("game needs a utility or a batch oracle")
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


def _failure(exc: Exception, coalition: str, **context) -> PromptShapError:
    """The error to raise for an oracle failure on the coalition of hex key
    ``coalition``: a ``PromptShapError`` gains it, then ``context``, as details
    it lacks; any other exception is wrapped in a ``UtilityOracleError``."""
    if not isinstance(exc, PromptShapError):
        wrapped = UtilityOracleError(f"utility oracle failed on coalition {coalition}: {exc}")
        wrapped.__cause__ = exc
        exc = wrapped
    for key, value in {"coalition": coalition, **context}.items():
        exc.details.setdefault(key, value)
    return exc


def run_batch(batch: BatchFn, masks: Sequence[int], n: int) -> tuple[list, Optional[Exception]]:
    """``batch(masks, n)`` as a list, and the exception that cut it short, if
    any. The utilities before a failure are kept, so ``masks[len(values)]`` is
    the coalition that failed: the first without a utility, the last when the
    batch yields too many or fails after its last, or the first whose utility
    ``finite_utility`` refuses. Each utility kept is as ``finite_utility``
    gives it."""
    values: list = []
    exc = None
    try:
        values.extend(batch(masks, n))
        if len(values) != len(masks):
            exc = UtilityOracleError(
                f"batch oracle gave {len(values)} utilities for {len(masks)} coalitions")
    except Exception as caught:
        exc = caught
    if exc is not None:
        del values[len(masks) - 1:]
    if not finite_numbers(values):
        for i, value in enumerate(values):
            try:
                values[i] = finite_utility(value, masks[i], n)
            except UtilityOracleError as unfit:
                exc = unfit
                del values[i:]
                break
    return values, exc


def _utilities(game: GameSpec, masks: Sequence[int], context=None) -> list:
    """The game's utilities of ``masks`` from one batch call (``run_batch``);
    a failure names its coalition, plus the details ``context(mask)`` gives."""
    values, exc = run_batch(game.batch, masks, game.n)
    if exc is not None:
        mask = masks[len(values)]
        raise _failure(exc, hex_keys([mask], game.n)[0], **(context(mask) if context else {}))
    return values


def finite_utility(value, mask: int, n: int):
    """``value`` as the utility of ``mask`` over ``n`` players: an ``int`` or
    a ``float`` as it is, any other finite real number (a numpy scalar, a
    ``Fraction``) as a ``float``; anything else, a bool included, is a
    ``UtilityOracleError`` naming the coalition."""
    if _finite_real(value):
        return value if isinstance(value, (int, float)) else float(value)
    [key] = hex_keys([mask], n)
    raise UtilityOracleError(
        f"utility oracle gave {value!r} on coalition {key}, not a finite real number",
        coalition=key)


def _finite_real(value) -> bool:
    if isinstance(value, int):
        # compared, not converted: isfinite rounds an int just past the float
        # range down to the float maximum
        return not isinstance(value, bool) and -_MAX <= value <= _MAX
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:   # a rational past the float range
        return False


def finite_numbers(values: Sequence) -> bool:
    """Every item is an exact ``int`` or ``float`` that ``_finite_real`` takes:
    ints by one ``min``/``max`` comparison (a NaN is kept only when first, and
    fails it), then one ``math.isfinite`` pass."""
    types = {*map(type, values)}
    return (types <= {int, float}
            and (int not in types or -_MAX <= min(values) and max(values) <= _MAX)
            and all(map(math.isfinite, values)))


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
    ``permutations`` independent orderings, row t the order of outputs
    t*n + 1 to t*n + n of ``SplitMix64(seed)`` (``SplitMix64.shuffles``), with
    the standard error of that mean.

    The engine asks first, then counts. Evaluation order: U(full),
    U(empty), then every other distinct prefix in the order the permutations
    first reach it, row by row, in one batch. While 2^n <= T*n, that order
    comes from a table of each coalition's first scan position
    (``_first_appearances``, 8 * 2^n bytes) and the utilities are read by
    mask from 8 * 2^n bytes more; a larger game keeps a first-appearance dict
    and a binary search in its sorted masks. With ``truncation_tol > 0`` a
    scan stops at the first prefix whose utility is within the tolerance of
    U(full), and the players after it get a marginal of 0; whether a prefix
    is needed then depends on the utilities before it, so each chunk of
    ``_CHUNK`` permutations asks one batch per position k: the distinct new
    k-th prefixes of its scans still running, in row order.
    ``truncation_tol = 0`` scans every permutation in full and keeps the
    estimator unbiased.

    The statistics come from counts of the steps the scans take, taken once
    every utility is in (``_tally``): how many permutations place each
    player p right after each set S. Each distinct marginal U(S + p) - U(S)
    is computed once and weighted by its count (``_statistics``), which gives
    the mean and standard error of each player's T marginals bit for bit.

    A utility that is not a finite real number fails as a
    ``UtilityOracleError`` naming its coalition and the index and prefix of
    the first permutation whose scan reaches it (``_first_reach``); a player
    with an infinite marginal, or whose squared deviations sum past the float
    range, from finite but huge utilities, fails as a ``PreconditionError``
    naming the player.
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
    # no more coalitions than prefixes: tables of 2^n slots, indexed by mask
    dense = 1 << n <= permutations * n
    rng = SplitMix64(seed)
    if truncation_tol > 0:
        u_full, u_empty = _utilities(game, [full, 0])
        # utilities by mask: each distinct coalition is asked for once
        seen = {full: u_full, 0: u_empty}
        # U(empty) already within the tolerance of U(full) truncates every scan at once
        order = rng.shuffles(n, 0 if abs(u_empty - u_full) <= truncation_tol else permutations)
        # lengths[t]: how many steps permutation t takes, n until its scan stops;
        # every scan stops at the full set, within the tolerance of itself
        lengths = np.full(len(order), n)
        for start, prefixes in _prefixes(order):
            live = range(len(prefixes))     # the chunk's rows whose scans go on
            for k, column in enumerate(prefixes.T.tolist()):
                reached = dict.fromkeys(column[i] for i in live)    # in row order
                new = [mask for mask in reached if mask not in seen]
                if new:
                    seen.update(zip(new, _utilities(
                        game, new, lambda m: _first_reach(order, m, lengths))))
                stops = {mask for mask in reached if abs(seen[mask] - u_full) <= truncation_tol}
                lengths[[start + i for i in live if column[i] in stops]] = k + 1
                live = [i for i in live if column[i] not in stops]
        masks, utilities = list(seen), list(seen.values())
    else:
        order, lengths = rng.shuffles(n, permutations), None
        if dense:
            masks = _first_appearances(order)
        else:
            # each distinct prefix in first-appearance order; with fewer
            # prefixes than coalitions, no chunk but the last can see them all
            seen = dict.fromkeys((full, 0))
            for _, prefixes in _prefixes(order):
                deque(map(seen.setdefault, prefixes.ravel().tolist()), 0)
            masks = list(seen)
            del seen    # the list keeps the order: free the dict before the batch
        utilities = _utilities(game, masks, lambda m: _first_reach(order, m))
        u_full, u_empty = utilities[0], utilities[1]
    every = len(masks) == 1 << n
    if dense:   # the utilities by mask; the steps read only masks asked for
        sorted_masks, by_mask = None, np.empty(1 << n)
        by_mask[masks] = np.array(utilities, dtype=np.float64)
    else:       # in ascending mask order, for a binary search per coalition
        sorted_masks = np.array(masks, dtype=_int_dtype(n))
        rank = np.argsort(sorted_masks)
        sorted_masks, by_mask = sorted_masks[rank], np.array(utilities, dtype=np.float64)[rank]
        del rank
    del masks, utilities
    tally = _tally(order, lengths, every)
    values, stderr = [], []
    for player, (marginals, counts) in enumerate(_key_columns(n, *tally, sorted_masks, by_mask)):
        try:
            mean, error = _statistics(marginals, counts, permutations)
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


def _first_appearances(order: np.ndarray) -> list:
    """U(full), U(empty), then every other prefix mask of the permutations in
    ``order`` in the order the scans first reach it, row by row: a table of
    each coalition's first scan position t*n + k (U(full) and U(empty) at -2
    and -1), lowered chunk by chunk with ``np.minimum.at`` until every
    coalition is in, and its reached masks sorted by position."""
    n = order.shape[1]
    never = order.size
    first = np.full(1 << n, never, dtype=np.int64)
    first[[(1 << n) - 1, 0]] = -2, -1
    for start, prefixes in _prefixes(order):
        # unbuffered: a mask repeated in the chunk keeps its least position
        np.minimum.at(first, prefixes.ravel(), np.arange(start * n, start * n + prefixes.size))
        if first.max() < never:
            break
    reached = np.flatnonzero(first < never)
    return reached[np.argsort(first[reached])].tolist()


def _tally(order: np.ndarray, lengths: Optional[np.ndarray], every: bool):
    """The sorted distinct keys ``p << n | S`` (player p placed right after the
    set S) of the steps the permutations in ``order`` take, the first
    ``lengths[t]`` of permutation t (all n if None), and how many times each
    is taken. When ``every`` coalition was asked for, each chunk's steps are
    counted straight into a table of ``n << n`` slots indexed by key
    (``np.add.at``); otherwise ``np.unique`` counts them and the counts merge
    into one sorted array."""
    n = order.shape[1]
    dtype = _int_dtype(n + (n - 1).bit_length())
    slots = np.zeros(n << n, dtype=np.int64) if every else None
    keys, counts = np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64)
    for start, prefixes in _prefixes(order):
        steps = order[start:start + len(prefixes)].astype(dtype)
        steps <<= n
        steps[:, 1:] |= prefixes[:, :-1].astype(dtype, copy=False)
        if lengths is not None:
            steps = steps[np.arange(n) < lengths[start:start + len(steps), None]]
        if every:
            np.add.at(slots, steps.ravel(), 1)     # unbuffered: a repeated key counts each time
            continue
        more, more_counts = np.unique(steps, return_counts=True)
        at = np.searchsorted(keys, more)
        found = at < len(keys)
        found[found] = keys[at[found]] == more[found]
        counts[at[found]] += more_counts[found]
        new = ~found
        if new.any():
            keys = np.insert(keys, at[new], more[new])
            counts = np.insert(counts, at[new], more_counts[new])
    if every:
        keys = np.flatnonzero(slots)
        counts = slots[keys]
    return keys, counts


def _key_columns(n: int, keys: np.ndarray, counts: np.ndarray, masks: Optional[np.ndarray],
                 utilities: np.ndarray):
    """Per player p, the marginal U(S + p) - U(S) of each of its sorted keys
    ``p << n | S``, once per key, and the keys' counts; ``utilities[i]`` is
    U(``masks[i]``), with ``masks`` ascending, or U(i) when ``masks`` is None."""
    full = (1 << n) - 1
    bounds = np.searchsorted(keys, [p << n for p in range(n + 1)]).tolist()
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        before = keys[lo:hi] & full
        if masks is None:
            after = before | 1 << p
        else:
            before = before.astype(masks.dtype)
            after, before = np.searchsorted(masks, before | 1 << p), np.searchsorted(masks, before)
        marginals = utilities[after]
        with np.errstate(over="ignore"):    # an inf marginal fails in _statistics
            marginals -= utilities[before]
        yield marginals, counts[lo:hi]


def _statistics(marginals: np.ndarray, counts: np.ndarray,
                permutations: int) -> tuple[float, float]:
    """One player's mean marginal over ``permutations`` and its standard
    error, where marginal ``marginals[i]`` occurs ``counts[i]`` times and the
    permutations left over, whose scans stopped before the player, give 0;
    ``OverflowError`` if a marginal leaves the float range.

    Equal marginals merge into one (value, count) pair. Each sum is exact in
    Python integers and rounded once (``_exact_sum``): the float
    ``math.fsum`` over every marginal returns, in any order. The mean is that
    sum divided by ``permutations``; where the rounded sum does not fit, the
    exact sum is divided and rounded once instead, which always fits, as a
    mean of finite marginals lies between the least and the greatest. Each
    squared deviation is C ``pow`` of ``value - mean`` once per distinct value, as
    ``(x - mean) ** 2`` on floats is (numpy's ``** 2`` multiplies, which
    rounds some squares differently). Only where a square or their sum leaves
    the float range, or the square of a nonzero deviation underflows to a
    subnormal float or to 0, losing its digits, is the same formula evaluated
    on the marginals and the mean scaled by 2**-e, e the exponent of the
    largest |marginal|, and the error scaled back by 2**e: a power of two
    rounds nothing away at that scale, and the standard error of finite
    marginals is at most half their range, so it fits."""
    truncated = permutations - int(counts.sum())
    if truncated:
        marginals, counts = np.append(marginals, 0.0), np.append(counts, truncated)
    marginals, inverse = np.unique(marginals, return_inverse=True)
    weights = np.bincount(inverse, counts).astype(np.int64)
    try:
        mean = _exact_sum(marginals, weights) / permutations
    except OverflowError:
        mean = _exact_sum(marginals, weights, permutations)
    if permutations == 1:
        return mean, 0.0
    try:
        deviations = [value - mean for value in marginals.tolist()]
        squares = [pow(deviation, 2) for deviation in deviations]
        # no nonzero deviation squares to a subnormal or to 0
        if min(squares) >= _TINY or sum(map(_TINY.__gt__, squares)) == deviations.count(0.0):
            return mean, math.sqrt(_exact_sum(squares, weights) / (permutations - 1) / permutations)
    except OverflowError:
        pass
    e = math.frexp(float(np.abs(marginals).max()))[1]
    scaled_mean = math.ldexp(mean, -e)
    squares = [pow(math.ldexp(value, -e) - scaled_mean, 2) for value in marginals.tolist()]
    return mean, math.ldexp(
        math.sqrt(_exact_sum(squares, weights) / (permutations - 1) / permutations), e)


def _exact_sum(values: Sequence[float], weights: Sequence[int], divisor: int = 1) -> float:
    """The sum of ``weights * values`` (int64 weights) over ``divisor``,
    rounded once to the nearest float; ``OverflowError`` if a value is
    infinite or the result leaves the float range.

    Each finite float is m * 2**e with m * 2**53 an integer (``np.frexp``),
    so over the lowest exponent the sum is one exact integer numerator, and
    ``int / int`` rounds it once. The terms are sorted by exponent and
    summed per exponent, which saves a big-int shift per term."""
    mantissas, exponents = np.frexp(values)
    if not np.isfinite(mantissas).all():
        raise OverflowError("cannot sum an infinite float exactly")
    order = np.argsort(exponents, kind="stable")
    exponents = exponents[order]
    digits = (mantissas[order] * 2.0 ** 53).astype(np.int64).tolist()
    weights = np.asarray(weights, dtype=np.int64)[order].tolist()
    starts = [0, *(np.flatnonzero(np.diff(exponents)) + 1).tolist()]
    lowest, total = int(exponents[0]), 0
    for lo, hi in zip(starts, [*starts[1:], len(digits)]):
        group = sum(map(operator.mul, digits[lo:hi], weights[lo:hi]))
        total += group << int(exponents[lo]) - lowest
    shift = lowest - 53    # the sum is total * 2**shift
    return (total << shift) / divisor if shift >= 0 else total / (divisor << -shift)


def _first_reach(order: np.ndarray, target: int, lengths: Optional[np.ndarray] = None) -> dict:
    """Where the scans of the permutations in ``order`` first reach
    ``target``, among the first ``lengths[t]`` prefixes of permutation t (all
    n if None): the permutation index and its prefix; none for U(full) and
    U(empty), which are asked for before any scan."""
    n = order.shape[1]
    if target in (0, (1 << n) - 1):
        return {}
    for start, prefixes in _prefixes(order):
        hits = prefixes == target
        if lengths is not None:
            hits &= np.arange(n) < lengths[start:start + len(hits), None]
        hits = np.flatnonzero(hits)
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
