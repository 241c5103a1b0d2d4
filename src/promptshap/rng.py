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
``_BLOCK`` more outputs when it runs out.

Permutations come from random keys (Knuth, TAOCP vol. 2, §3.4.2): a
permutation of n items is the order that sorts n outputs. ``shuffles(n, T)``
takes row t from outputs t*n + 1 to t*n + n after the generator's position
and leaves the position T*n outputs further on, so the first rows of a
table are the same for every larger T and ``next_u64`` goes on from output
T*n + 1. The keys are mixed and argsorted a chunk of about ``_CHUNK`` of
them, ``_CHUNK // n`` rows, at a time straight into the table, so no (T, n)
array of keys is held; a row of more than ``_CHUNK`` keys is a chunk of its
own. Ties cannot happen: the output function of SplitMix64 is a
bijection on 64-bit states and the states of one call's T*n < 2^64 outputs
are distinct, so its keys are pairwise distinct, every sort gives the one
order a stable sort gives, and each of the n! orders of a row is equally
likely. ``shuffle`` reorders a list by one such row: the package has one
permutation algorithm.
"""

from __future__ import annotations

from operator import length_hint

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 256
_CHUNK = 4096


def _mix(base: int, size: int) -> np.ndarray:
    """The ``size`` outputs that follow state ``base``: the states ``base +
    k*gamma`` for k = 1..size, mixed."""
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(base & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        self._outputs = iter(_mix(self._base, _BLOCK).tolist())
        return next(self._outputs)

    def uniform(self) -> float:
        # 53-bit mantissa gives uniforms on [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def shuffle(self, xs: list) -> None:
        """Reorder ``xs`` in place by ``shuffles(len(xs), 1)[0]``: the item at
        index i moves to the rank of the i-th of ``len(xs)`` keys."""
        xs[:] = [xs[i] for i in self.shuffles(len(xs), 1)[0].tolist()]

    def shuffles(self, n: int, count: int) -> np.ndarray:
        """``count`` permutations of ``range(n)`` as a (count, n) table of the
        smallest unsigned type that holds n - 1: row t is the argsort of the
        outputs t*n + 1 to t*n + n, which the call draws."""
        table = np.empty((count, n), dtype=np.min_scalar_type(max(n - 1, 0)))
        start, rows = self.state, max(1, _CHUNK // max(n, 1))
        for t in range(0, count, rows):
            m = min(rows, count - t)
            table[t:t + m] = _mix(start + t * n * _GAMMA, m * n).reshape(m, n).argsort(axis=1)
        self._base, self._mixed, self._outputs = start, count * n, iter(())
        return table


def derive_seed(seed: int, purpose: str) -> int:
    """Stable sub-seed for an independent stream named by ``purpose``."""
    import hashlib     # here, not at the top: it loads OpenSSL, which only this needs
    h = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "big")
    return (seed + h) & _MASK64
