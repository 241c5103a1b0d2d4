import hashlib
import math
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from promptshap.rng import _BLOCK, _CHUNK, _GAMMA, SplitMix64, derive_seed

from conftest import ReferenceSplitMix64

EDGE_SEEDS = (0, 1, 2**64 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**64 - 1))
calls = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("shuffle"), st.sampled_from((0, 1, 2, 3, 12, _BLOCK + 9))),
    st.tuples(st.just("shuffles"), st.sampled_from((0, 1, 2, 3, 12)), st.integers(0, 300)),
    st.tuples(st.just("shuffles"), st.just(_BLOCK + 9), st.integers(0, 3)),
)


def call(rng, op: str, *arg):
    """The output of one generator call; a shuffle's output is the permuted
    list, and the output of ``shuffles`` its table's shape, dtype and rows."""
    if op == "shuffle":
        xs = list(range(arg[0]))
        rng.shuffle(xs)
        return xs
    if op == "shuffles":
        return recorded_shuffles(rng, *arg)
    return getattr(rng, op)(*arg)


def table_dtype(n: int):
    """The smallest unsigned type that holds n - 1."""
    return np.dtype(np.uint8 if n <= 256 else np.uint16 if n <= 65_536 else np.uint32)


def recorded_shuffles(rng, n: int, count: int) -> tuple:
    """``shuffles(n, count)`` as (shape, dtype, rows); the scalar reference
    draws ``count`` permutations in turn."""
    if isinstance(rng, SplitMix64):
        table = rng.shuffles(n, count)
        return table.shape, table.dtype, table.tolist()
    return (count, n), table_dtype(n), [rng.permutation(n) for _ in range(count)]


def drawn(seed: int, state: int) -> int:
    """How many outputs a generator seeded ``seed`` has drawn at ``state``:
    each draw moves the state by gamma."""
    return (state - seed) * pow(_GAMMA, -1, 2**64) % 2**64


def test_seed_zero_known_answers():
    # published SplitMix64 reference outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_in_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(5):
        x = rng.uniform()
        assert 0.0 <= x < 1.0


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=40))
def test_shuffle_is_a_permutation(seed, n):
    xs = list(range(n))
    SplitMix64(seed).shuffle(xs)
    assert sorted(xs) == list(range(n))


def test_shuffle_deterministic():
    xs, ys = list(range(20)), list(range(20))
    SplitMix64(77).shuffle(xs)
    SplitMix64(77).shuffle(ys)
    assert xs == ys


@given(seeds, st.lists(calls, max_size=40))
def test_block_mixing_matches_the_scalar_reference(seed, ops):
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    assert ours.state == reference.state
    for op in ops:
        assert call(ours, *op) == call(reference, *op)
        assert ours.state == reference.state


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("length", [0, 1, 2, _BLOCK + 9, 3 * _BLOCK])
def test_shuffle_matches_the_scalar_reference_across_blocks(seed, length):
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(3):
        assert call(ours, "shuffle", length) == call(reference, "shuffle", length)
        assert ours.state == reference.state
        assert ours.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("n, count", [(4, 0), (1, 3), (2, 300), (12, 500), (256, 3),
                                      (_BLOCK + 9, 3), (65_540, 3), (0, 3)])
def test_recorded_shuffles_match_successive_reference_shuffles(seed, n, count):
    # 256 players are the last a uint8 table holds; 65,540 need a uint32 table,
    # and each of their rows, wider than _CHUNK keys, is a chunk of its own
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    table = ours.shuffles(n, count)
    assert table.shape == (count, n)
    assert table.dtype == table_dtype(n)
    assert table.tolist() == [reference.permutation(n) for _ in range(count)]
    assert ours.state == reference.state
    assert ours.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("n, count, before", [(12, 2000, 5), (300, 60, 5), (257, 80, 5),
                                              (2, 3000, 0)])
def test_shuffles_whose_draws_span_symbol_chunks_match_the_reference(seed, n, count, before):
    # the keys of each call span several mixes of _CHUNK outputs; ``before``
    # draws first start the table inside a partly read block (none: on a
    # block edge). n = 257 fills a uint16 table
    assert count * n > _CHUNK
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(before):
        assert ours.next_u64() == reference.next_u64()
    assert call(ours, "shuffles", n, count) == call(reference, "shuffles", n, count)
    assert ours.state == reference.state == (seed + (before + count * n) * _GAMMA) % 2**64
    assert [ours.next_u64() for _ in range(_BLOCK + 1)] == \
        [reference.next_u64() for _ in range(_BLOCK + 1)]
    assert ours.state == reference.state


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_shuffles_of_many_lengths_in_turn_match_the_reference(seed):
    # one stream through calls of many lengths, each length visited twice
    lengths = [*range(0, 40, 2), *range(39, 0, -3), 12, 200, 12, 200]
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for length in lengths:
        assert call(ours, "shuffle", length) == call(reference, "shuffle", length)
        assert ours.state == reference.state
        assert ours.shuffles(length, 3).tolist() == [reference.permutation(length)
                                                     for _ in range(3)]
        assert ours.state == reference.state


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("n, count", [(1, 4), (5, 7), (257, 2), (_CHUNK + 1, 2)])
def test_row_t_is_the_order_of_outputs_t_n_plus_1_to_t_n_plus_n(seed, n, count):
    reference = ReferenceSplitMix64(seed)
    keys = np.array([reference.next_u64() for _ in range(count * n)], dtype=np.uint64)
    want = keys.reshape(count, n).argsort(axis=1, kind="stable")
    rng = SplitMix64(seed)
    assert rng.shuffles(n, count).tolist() == want.tolist()
    assert drawn(seed, rng.state) == count * n
    # next_u64 goes on from output count * n + 1
    assert rng.next_u64() == reference.next_u64()


@pytest.mark.parametrize("n", [1, 12, 257, _CHUNK - 1, _CHUNK + 1])
def test_a_shorter_table_is_the_head_of_a_longer_one(n):
    # the rows of a chunk of keys are _CHUNK // n (at least 1): cut at and
    # around its edges
    rows = max(1, _CHUNK // n)
    longest = SplitMix64(11).shuffles(n, 2 * rows + 2)
    for count in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1}):
        rng = SplitMix64(11)
        assert np.array_equal(rng.shuffles(n, count), longest[:count])
        assert drawn(11, rng.state) == count * n


def test_shuffle_reorders_any_items_by_one_row():
    items = ["a", None, 2.5, ("t",), "a", 7]
    ours, other = SplitMix64(9), SplitMix64(9)
    ours.shuffle(items)
    row = other.shuffles(len(items), 1)[0].tolist()
    assert items == [["a", None, 2.5, ("t",), "a", 7][i] for i in row]
    assert ours.next_u64() == other.next_u64()


def test_shuffles_holds_the_keys_of_one_chunk_at_a_time():
    # the keys of all 20,000 rows would take 1.9 MB, and their argsort as much
    # again; one chunk's keys and temporaries take a few times 32 KB
    tracemalloc.start()
    try:
        table = SplitMix64(3).shuffles(12, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 16 * 8 * _CHUNK


def test_every_order_of_four_players_is_equally_likely():
    # 24,000 rows at a fixed seed: 1,000 expected per order of 4 players.
    # The bound is the 0.999 quantile of chi-square with 23 degrees of freedom,
    # and 0.25 +- 0.01 is more than 3.5 standard errors of a position share
    # (sqrt(0.25 * 0.75 / 24,000) = 0.0028)
    rows, n = 24_000, 4
    table = SplitMix64(2024).shuffles(n, rows)
    counts = Counter(map(tuple, table.tolist()))
    assert set(counts) == set(permutations(range(n)))
    expected = rows / math.factorial(n)
    chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi_square < 49.73
    for position in range(n):
        shares = np.bincount(table[:, position], minlength=n) / rows
        assert np.all(np.abs(shares - 0.25) <= 0.01), (position, shares)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_draws_cross_block_boundaries_on_one_stream(seed):
    ours, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(2 * _BLOCK + 3):
        assert ours.next_u64() == reference.next_u64()
        assert ours.state == reference.state


def test_derive_seed_known_answers():
    # frozen: (seed + first 8 big-endian bytes of sha256(purpose)) mod 2^64
    assert derive_seed(0, "alpha") == 0x8ED3F6AD685B959E
    assert derive_seed(7, "alpha") == 0x8ED3F6AD685B95A5
    assert derive_seed(2**64 - 1, "alpha") == 0x8ED3F6AD685B959D  # wraps


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=30))
def test_derive_seed_matches_documented_construction(seed, purpose):
    expected = (seed + int.from_bytes(
        hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "big")) % 2**64
    assert derive_seed(seed, purpose) == expected


def test_derive_seed_separates_purposes():
    streams = {derive_seed(42, p) for p in ("a", "b", "c", "shapley:montecarlo")}
    assert len(streams) == 4
