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
its own is mapped over the masks. Exact sums each player's terms as numpy
arrays over the masks without it, into one ``math.fsum``.

Monte Carlo draws all T permutations at once as a (T, n) table of small
unsigned ints (``SplitMix64.shuffles``), then makes numpy passes over it in
chunks of ``_CHUNK`` permutations. Without truncation the first pass turns
each chunk into prefix masks by a cumulative sum of ``1 << player`` (int64 up
to 63 players, Python ints beyond) and collects the distinct ones; after the
one batch call the second pass finds each prefix's utility by binary search
in the sorted masks, differences it along the permutation and scatters the
marginals into one (n, T) float64 table: 8 bytes per marginal, plus chunk
temporaries of about ``_CHUNK * n`` items. With truncation on, whether a
prefix is needed depends on the utilities before it, so each scan walks its
permutation in Python and asks for each new prefix as a batch of one.
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
    """The game's utilities of ``masks`` from one batch call; a failure names
    its coalition, plus the details ``context(mask)`` gives."""
    values, exc = run_batch(game.batch, masks, game.n)
    if exc is not None:
        mask = masks[len(values)]
        raise _failure(exc, Coalition(mask, game.n), **(context(mask) if context else {}))
    return values


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

    The standard error sums squared deviations made by C ``pow``, as
    ``(x - mean) ** 2`` on floats does; numpy's ``** 2`` multiplies ``x * x``,
    which rounds some squares differently.
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
    else:
        order = rng.shuffles(n, permutations)
        # first pass: each distinct prefix in first-appearance order
        masks = list(dict.fromkeys(chain((full, 0), chain.from_iterable(
            prefixes.ravel().tolist() for _, prefixes in _prefixes(order)))))
        utilities = _utilities(game, masks, lambda m: _first_reach(order, m))
        u_full, u_empty = utilities[0], utilities[1]
        # the utilities in ascending mask order, for a binary search per prefix
        keys = np.array(masks, dtype=_mask_dtype(n))
        rank = np.argsort(keys)
        keys, by_key = keys[rank], np.array(utilities, dtype=np.float64)[rank]
        del masks, utilities, rank  # the marginals below take their room
        # second pass: gather each prefix's utility, difference along the
        # permutation, and scatter each marginal to its player
        marginals = np.empty((n, permutations))
        for start, prefixes in _prefixes(order):
            cur = by_key[np.searchsorted(keys, prefixes)]
            rows = order[start:start + len(cur)]
            cols = np.arange(start, start + len(cur))[:, None]
            marginals[rows, cols] = np.diff(cur, axis=1, prepend=u_empty)
    values = []
    stderr = []
    for column in marginals:
        mean = math.fsum(_floats(column)) / permutations
        values.append(mean)
        if permutations == 1:
            stderr.append(0.0)
        else:
            var = math.fsum(map(pow, _floats(column - mean), repeat(2))) / (permutations - 1)
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


def _mask_dtype(n: int):
    """int64 while every mask of n players fits in one, else Python ints."""
    return np.int64 if n <= 63 else object


def _prefixes(order: np.ndarray):
    """(start, masks) per chunk of at most ``_CHUNK`` rows of the permutation
    table ``order``: ``masks[t, k]`` is the set of the first k + 1 players of
    permutation ``start + t``."""
    dtype = _mask_dtype(order.shape[1])
    for start in range(0, len(order), _CHUNK):
        masks = order[start:start + _CHUNK].astype(dtype)
        np.left_shift(1, masks, out=masks)
        yield start, np.cumsum(masks, axis=1, out=masks)


def _floats(column: np.ndarray):
    """The items of ``column`` as Python floats, converted a chunk at a time."""
    return chain.from_iterable(
        column[start:start + _CHUNK].tolist() for start in range(0, len(column), _CHUNK))


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
