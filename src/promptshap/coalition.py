"""Coalitions of players as immutable bitsets.

A coalition over ``n`` players stores its members in an integer bitmask; bit i
set means player i is a member. The canonical serialization is the lowercase
hex of the mask's little-endian bytes, zero-padded to ceil(n/8) bytes; it is
the key of the utility cache, and ``hex_keys`` writes it for a list of masks
at once. The constructor checks ``n`` and the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError


@dataclass(frozen=True, slots=True)
class Coalition:
    mask: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"coalition needs a positive player count, got n={self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise PreconditionError(
                f"coalition mask {self.mask:#x} has bits outside players 0..{self.n - 1}"
            )

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def to_hex(self) -> str:
        [key] = hex_keys([self.mask], self.n)
        return key


def hex_keys(masks: Iterable[int], n: int) -> list[str]:
    """The canonical serialization of each mask over ``n`` players, in order."""
    width = (n + 7) // 8
    return [mask.to_bytes(width, "little").hex() for mask in masks]
