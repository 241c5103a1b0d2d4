"""Coalitions of players as immutable bitsets.

A coalition over ``n`` players stores its members in an integer bitmask; bit i
set means player i is a member. The canonical serialization is the lowercase
hex of the mask's little-endian bytes, zero-padded to ceil(n/8) bytes, and
round-trips losslessly.

The public constructor checks ``n`` and the mask. The engines build one
coalition per oracle call from masks they derived themselves, so they use the
private ``Coalition._trusted``, which stores the two slots without the checks:
on a Monte Carlo scan the checks would cost more than a cached oracle call.
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
    def _trusted(cls, mask: int, n: int) -> "Coalition":
        """A coalition from a mask the caller built over ``n >= 1`` players; unchecked."""
        self = _new(cls)
        _set_mask(self, mask)
        _set_n(self, n)
        return self

    @classmethod
    def empty(cls, n: int) -> "Coalition":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_indices(cls, indices, n: int) -> "Coalition":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise PreconditionError(f"player index {i} out of range for n={n}")
            mask |= 1 << i
        return cls(mask, n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def __iter__(self):
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def add(self, i: int) -> "Coalition":
        if not 0 <= i < self.n:
            raise PreconditionError(f"player index {i} out of range for n={self.n}")
        return Coalition(self.mask | 1 << i, self.n)

    def remove(self, i: int) -> "Coalition":
        if i not in self:
            raise PreconditionError(f"player {i} is not a member")
        return Coalition(self.mask & ~(1 << i), self.n)

    def to_hex(self) -> str:
        width = (self.n + 7) // 8
        return self.mask.to_bytes(width, "little").hex()

    @classmethod
    def from_hex(cls, s: str, n: int) -> "Coalition":
        width = (n + 7) // 8
        raw = bytes.fromhex(s)
        if len(raw) != width:
            raise PreconditionError(
                f"coalition hex {s!r} has {len(raw)} bytes, expected {width} for n={n}"
            )
        return cls(int.from_bytes(raw, "little"), n)


# the slots' own descriptors write past the frozen ``__setattr__``
_new = object.__new__
_set_mask = Coalition.mask.__set__
_set_n = Coalition.n.__set__
