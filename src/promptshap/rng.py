"""Portable seeded random number generation.

All randomness in the package flows through SplitMix64, a 64-bit generator
with a published reference implementation and known-answer values, so that
results files are reproducible across platforms and Python versions. Derived
seeds are computed as ``(seed + first 8 bytes of sha256(purpose)) mod 2^64``,
giving each consumer an independent, documented stream.

Cost model: the k-th output mixes the state ``seed + k*gamma mod 2^64``, so
outputs do not depend on each other and are mixed ``_BLOCK`` at a time in
wrapping numpy ``uint64`` arithmetic, bit-identical to the scalar reference.
A draw is then one list read, where mixing in Python integers costs about
1 us. Every method reads the same buffer, so interleaved calls stay on one
stream. The rejection loop of Fisher-Yates is written once, in Python, with
its (index, shift) steps computed once per list length and kept for the
next call of that length: ``shuffle`` runs it once, and ``shuffles`` runs it
T times on one list and records each result in a (T, n) table, converting
the rows a block of shuffles at a time.
"""

from __future__ import annotations

import hashlib
from array import array
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 256
# k*gamma mod 2^64 for k = 1.._BLOCK: the state offsets of one block's outputs
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix_block(base: int) -> list[int]:
    """The ``_BLOCK`` outputs that follow state ``base``."""
    z = _STEPS + np.uint64(base)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).tolist()


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood; Vigna's reference constants).

    seed=0 produces 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f
    as its first three outputs; tests pin these known-answer values.
    """

    __slots__ = ("_base", "_buf", "_pos")

    def __init__(self, seed: int):
        self._base = seed & _MASK64   # the state before ``_buf[0]`` was drawn
        self._buf: list[int] = []
        self._pos = 0                 # outputs of ``_buf`` already consumed

    @property
    def state(self) -> int:
        """The state after the outputs drawn so far, as in the scalar generator."""
        return (self._base + self._pos * _GAMMA) & _MASK64

    def _refill(self) -> list[int]:
        self._base = (self._base + len(self._buf) * _GAMMA) & _MASK64
        self._buf = _mix_block(self._base)
        self._pos = 0
        return self._buf

    def next_u64(self) -> int:
        buf = self._buf if self._pos < len(self._buf) else self._refill()
        z = buf[self._pos]
        self._pos += 1
        return z

    def uniform(self) -> float:
        # 53-bit mantissa gives uniforms on [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates, iterating from the highest index down.

        Index ``i`` swaps with an unbiased ``j`` in [0, i]: the top
        ``i.bit_length()`` bits of one output, redrawn while they exceed ``i``.
        """
        self._shuffle(xs, 1)

    def shuffles(self, n: int, count: int) -> np.ndarray:
        """``count`` successive ``shuffle`` calls on one list ``range(n)``, as
        a (count, n) table of the smallest unsigned type that holds n - 1: row
        t is the list after call t + 1."""
        table = array(np.min_scalar_type(max(n - 1, 0)).char)
        players, rows = list(range(n)), []
        for start in range(0, count, _BLOCK):
            # rows reach the table _BLOCK shuffles at a time, one conversion each
            self._shuffle(players, min(_BLOCK, count - start), rows.extend)
            table.extend(rows)
            rows.clear()
        return np.frombuffer(table, dtype=table.typecode).reshape(count, n)

    def _shuffle(self, xs: list, times: int, record=None) -> None:
        """``shuffle(xs)`` ``times`` over, handing ``xs`` to ``record`` after each."""
        steps = _steps(len(xs))
        buf, pos = self._buf, self._pos
        end = len(buf)
        for _ in range(times):
            for i, shift in steps:
                while True:
                    if pos == end:
                        buf, pos, end = self._refill(), 0, _BLOCK
                    j = buf[pos] >> shift
                    pos += 1
                    if j <= i:
                        break
                xs[i], xs[j] = xs[j], xs[i]
            if record is not None:
                record(xs)
        self._pos = pos


@lru_cache(maxsize=16)
def _steps(length: int) -> tuple:
    """The (index, shift) steps of a Fisher-Yates pass over ``length`` items:
    index ``i`` draws the top ``i.bit_length()`` bits of one output."""
    return tuple((i, 64 - i.bit_length()) for i in range(length - 1, 0, -1))


def derive_seed(seed: int, purpose: str) -> int:
    """Stable sub-seed for an independent stream named by ``purpose``."""
    h = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "big")
    return (seed + h) & _MASK64
