"""Portable seeded random number generation.

All randomness in the package flows through SplitMix64, a 64-bit generator
with a published reference implementation and known-answer values, so that
results files are reproducible across platforms and Python versions. Derived
seeds are computed as ``(seed + first 8 bytes of sha256(purpose)) mod 2^64``,
giving each consumer an independent, documented stream.

Cost model: the k-th output mixes the state ``seed + k*gamma mod 2^64``, so
outputs do not depend on each other and are mixed many at a time in wrapping
numpy ``uint64`` arithmetic, bit-identical to the scalar reference, where
mixing in Python integers costs about 1 us a draw. The generator keeps one
stream position: a base state, the outputs mixed from it and an iterator over
those not yet drawn, so the state after the draws so far is ``base + (mixed -
undrawn) * gamma``. ``next_u64`` and ``uniform`` read that iterator and mix
``_BLOCK`` more outputs when it runs out. The rejection loop of Fisher-Yates
is written once, in Python. Over a list of n items every step reads symbols:
the top b = (n - 1).bit_length() bits of each draw, shifted in numpy before
``tolist()`` so that the list holds small ints. Each step reads one iterator
over a chunk of symbols until one falls below its threshold, and its (index,
threshold, shift) triple is computed once per list length and kept for the
next call of that length. A call mixes about twice the draws it expects as
its first chunk, and ``_CHUNK`` more whenever a chunk runs out. It leaves the
position at its start state with exactly the draws used and none undrawn, so
interleaved calls stay on one stream. ``shuffle`` runs the loop once, so
each call pays one numpy mix of a few microseconds, and ``shuffles`` runs it
T times on one list and records each result in a (T, n) table: the rows of a
block of ``_BLOCK`` shuffles collect in one list, which is appended to the
table at once: a uint8 table (n <= 256) is a ``bytearray`` that takes the
list through ``bytearray(rows)`` (on one block of 3,072 ints at n = 12 it
took 10 us, where ``array.fromlist`` took 52 us), and a wider one an
``array`` of its type that takes it through ``array.fromlist``.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import length_hint

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 256
_CHUNK = 4096
# k*gamma mod 2^64 for k = 1.._CHUNK: the state offsets of one chunk's outputs
_OFFSETS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix(base: int, size: int) -> np.ndarray:
    """The ``size`` (at most ``_CHUNK``) outputs that follow state ``base``."""
    z = _OFFSETS[:size] + np.uint64(base & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _symbols(base: int, size: int, bits: int):
    """An iterator over the top ``bits`` bits of the ``size`` outputs that
    follow state ``base``, as small Python ints."""
    return iter((_mix(base, size) >> np.uint64(64 - bits)).tolist())


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood; Vigna's reference constants).

    seed=0 produces 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f
    as its first three outputs; tests pin these known-answer values.
    """

    __slots__ = ("_base", "_mixed", "_outputs")

    def __init__(self, seed: int):
        self._base = seed & _MASK64   # the state the outputs are mixed from
        self._mixed = 0               # the outputs mixed from it
        self._outputs = iter(())      # those not yet drawn

    @property
    def state(self) -> int:
        """The state after the outputs drawn so far, as in the scalar generator."""
        return (self._base + (self._mixed - length_hint(self._outputs)) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        for z in self._outputs:
            return z
        self._base, self._mixed = self.state, _BLOCK
        self._outputs = _symbols(self._base, _BLOCK, 64)
        return next(self._outputs)

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
        dtype = np.min_scalar_type(max(n - 1, 0))
        narrow = dtype == np.uint8
        table = bytearray() if narrow else array(dtype.char)
        players, rows = list(range(n)), []
        for start in range(0, count, _BLOCK):
            # rows reach the table _BLOCK shuffles at a time, one conversion each
            self._shuffle(players, min(_BLOCK, count - start), rows.extend)
            if narrow:
                table += bytearray(rows)
            else:
                table.fromlist(rows)
            rows.clear()
        return np.frombuffer(table, dtype=dtype).reshape(count, n)

    def _shuffle(self, xs: list, times: int, record=None) -> None:
        """``shuffle(xs)`` ``times`` over, handing ``xs`` to ``record`` after each.

        The steps read symbols, the top bits of each draw, from one iterator
        over a chunk of them: the first chunk holds about twice the draws the
        call expects, and a step whose chunk runs out goes on in a next chunk
        of ``_CHUNK``. The call starts at the generator's position and leaves
        it at ``start`` with ``mixed - undrawn`` outputs drawn and none left,
        past exactly the draws used, where ``next_u64`` goes on."""
        steps, bits, draws = _steps(len(xs))
        start = self.state
        mixed = min(_CHUNK, int(2 * draws * times))
        it = _symbols(start, mixed, bits)
        for _ in range(times):
            for i, below, shift in steps:
                while True:
                    for v in it:
                        if v < below:
                            break
                    else:
                        it = _symbols(start + mixed * _GAMMA, _CHUNK, bits)
                        mixed += _CHUNK
                        continue
                    break
                j = v >> shift
                xs[i], xs[j] = xs[j], xs[i]
            if record is not None:
                record(xs)
        self._base, self._mixed, self._outputs = start, mixed - length_hint(it), iter(())


@lru_cache(maxsize=16)
def _steps(length: int) -> tuple:
    """The Fisher-Yates steps over ``length`` items, the symbol width ``bits``
    that they read and the draws that one pass takes on average.

    A symbol is the top ``bits`` = (length - 1).bit_length() bits of one
    output. Index ``i`` accepts its top ``i.bit_length()`` bits when they are
    at most ``i``: a symbol below ``(i + 1) << shift``, where ``shift`` is
    ``bits - i.bit_length()``; it then swaps with ``symbol >> shift``."""
    bits, steps = max(length - 1, 0).bit_length(), []
    for i in range(length - 1, 0, -1):
        shift = bits - i.bit_length()
        steps.append((i, (i + 1) << shift, shift))
    return tuple(steps), bits, sum((1 << i.bit_length()) / (i + 1) for i in range(1, length))


def derive_seed(seed: int, purpose: str) -> int:
    """Stable sub-seed for an independent stream named by ``purpose``."""
    import hashlib     # here, not at the top: it loads OpenSSL, which only this needs
    h = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "big")
    return (seed + h) & _MASK64
