"""Coalitions of players as immutable bitsets.

A coalition over ``n`` players stores its members in an integer bitmask; bit i
set means player i is a member. The canonical serialization is the lowercase
hex of the mask's little-endian bytes, zero-padded to ceil(n/8) bytes; it is
the key of the utility cache, and ``hex_keys`` writes it for a list of masks
at once.

The mask rule lives here once: ``check_masks`` refuses a mask with a bit
outside players 0..n-1, negative masks included. The constructor,
``cache.cached_utility`` and every library oracle's batch
(``game.checked_batch``) go through it; ``indices`` lists a mask's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError


@dataclass(frozen=True, slots=True)
class Coalition:
    mask: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"coalition needs a positive player count, got n={self.n}")
        check_masks([self.mask], self.n)

    def indices(self) -> tuple[int, ...]:
        return indices(self.mask, self.n)


def hex_keys(masks: Iterable[int], n: int) -> list[str]:
    """The canonical serialization of each mask over ``n`` players, in order."""
    width = (n + 7) // 8
    return [mask.to_bytes(width, "little").hex() for mask in masks]


def check_masks(masks: Sequence[int], n: int) -> None:
    """Refuse the first mask with a bit outside players 0..n-1, negative or not."""
    if min(masks, default=0) < 0 or max(masks, default=0) >> n:
        bad = next(mask for mask in masks if mask < 0 or mask >> n)
        raise PreconditionError(f"coalition mask {bad:#x} has bits outside players 0..{n - 1}")


def indices(mask: int, n: int) -> tuple[int, ...]:
    """The players of ``mask`` over ``n`` players, ascending."""
    return tuple(i for i in range(n) if mask >> i & 1)
