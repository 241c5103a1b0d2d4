"""Coalitions of players as immutable bitsets.

A coalition over ``n`` players stores its members in an integer bitmask; bit i
set means player i is a member. The canonical serialization is the lowercase
hex of the mask's little-endian bytes, zero-padded to ceil(n/8) bytes; it is
the key of the utility cache. The constructor checks ``n`` and the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def empty(cls, n: int) -> "Coalition":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1, n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def to_hex(self) -> str:
        width = (self.n + 7) // 8
        return self.mask.to_bytes(width, "little").hex()

