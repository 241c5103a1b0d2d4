import dataclasses
import functools
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap import game as game_module
from promptshap.cache import ResponseCache
from promptshap.client import augmentation_utility, load_manifest, load_questions
from promptshap.coalition import Coalition
from promptshap.config import Task
from promptshap.ensemble import Mode, PredictionMatrix, Rule, ValidationSet, matrix_utility
from promptshap.errors import (
    CapacityError,
    ConsistencyError,
    PreconditionError,
    PromptShapError,
    UtilityOracleError,
)
from promptshap.game import (
    GameSpec,
    Method,
    ShapleyResult,
    _exact_sum,
    _finite_real,
    _first_reach,
    _int_dtype,
    _key_columns,
    _prefixes,
    _statistics,
    _tally,
    _utilities,
    finite_numbers,
    loo_values,
    run_batch,
    shapley_exact,
    shapley_montecarlo,
    shapley_weight,
)
from promptshap.rng import SplitMix64
from promptshap.selection import rank_add_curve
from promptshap.theory import LipschitzGame

from conftest import (
    ReferenceSplitMix64,
    glove_utility,
    hex_key,
    position_major,
    random_table_game,
    reference_marginals,
    reference_shapley_montecarlo,
    reference_stderr,
    shapley_permutation_rational,
    shapley_subset_rational,
    stub_manifest_rows,
    stub_question_rows,
    write_jsonl,
)


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, coalition):
        self.calls += 1
        return self.fn(coalition)


def additive_game(weights):
    def utility(coalition):
        return math.fsum(weights[i] for i in coalition.indices())

    return GameSpec(n=len(weights), utility=utility)


# ---------------------------------------------------------------------------
# weights


def test_shapley_weight_values():
    assert shapley_weight(3, 0) == Fraction(1, 3)
    assert shapley_weight(3, 1) == Fraction(1, 6)
    assert shapley_weight(5, 2) == Fraction(1, 30)


def test_shapley_weight_domain():
    with pytest.raises(PreconditionError):
        shapley_weight(3, 3)
    with pytest.raises(PreconditionError):
        shapley_weight(3, -1)
    with pytest.raises(PreconditionError):
        shapley_weight(0, 0)


def test_weights_sum_to_one_over_subsets():
    # sum over all S not containing i of w(n, |S|) is exactly 1
    for n in range(1, 9):
        total = sum(
            shapley_weight(n, bin(mask).count("1"))
            for mask in range(1 << (n - 1))
        )
        assert total == 1


# ---------------------------------------------------------------------------
# exact values


def test_glove_exact(glove_game):
    result = shapley_exact(glove_game)
    assert result.method is Method.EXACT
    expected = (2 / 3, 1 / 6, 1 / 6)
    for got, want in zip(result.values, expected):
        assert abs(got - want) < 1e-12
    assert result.u_full == 1.0
    assert result.u_empty == 0.0
    assert result.stderr == (0.0, 0.0, 0.0)


def test_additive_game_recovers_weights():
    weights = (0.2, 0.5, 0.3)
    result = shapley_exact(additive_game(weights))
    for got, want in zip(result.values, weights):
        assert abs(got - want) < 1e-12


def test_exact_cap():
    oracle = CountingOracle(lambda c: 0.0)
    with pytest.raises(CapacityError):
        shapley_exact(GameSpec(n=21, utility=oracle))
    assert oracle.calls == 0
    # the cap is configurable
    shapley_exact(GameSpec(n=5, utility=lambda c: 0.0), exact_cap=5)
    with pytest.raises(CapacityError):
        shapley_exact(GameSpec(n=6, utility=lambda c: 0.0), exact_cap=5)


def test_oracle_failure_is_wrapped():
    def broken(coalition):
        if coalition.mask.bit_count() == 2:
            raise ValueError("boom")
        return 0.0

    with pytest.raises(UtilityOracleError) as err:
        shapley_exact(GameSpec(n=3, utility=broken))
    assert "coalition" in err.value.details


def prefix_scan(n, permutations, seed, depth=None):
    """Each prefix mask of the seeded permutations (the first ``depth`` prefixes
    of each) mapped to (permutation index, prefix) where it first appears."""
    rng = ReferenceSplitMix64(seed)
    first = {}
    for t in range(permutations):
        perm = rng.permutation(n)
        mask = 0
        for pos, p in enumerate(perm[:depth]):
            mask |= 1 << p
            first.setdefault(mask, (t, tuple(perm[: pos + 1])))
    return first


@pytest.mark.parametrize("error, raised", [
    (ValueError("boom"), UtilityOracleError),
    (ConsistencyError("boom"), ConsistencyError),
])
def test_montecarlo_failure_names_permutation_and_prefix(error, raised):
    # 32 coalitions, 50 prefixes: the engine finds its ask order in a table by mask
    assert_failure_names_permutation_and_prefix(5, 3, 10, error, raised)


@pytest.mark.parametrize("error, raised", [
    (ValueError("boom"), UtilityOracleError),
    (ConsistencyError("boom"), ConsistencyError),
])
def test_montecarlo_failure_names_permutation_and_prefix_without_the_mask_table(error, raised):
    # 256 coalitions, 160 prefixes: the engine finds its ask order in a dict
    assert_failure_names_permutation_and_prefix(8, 3, 20, error, raised)


def assert_failure_names_permutation_and_prefix(n, seed, permutations, error, raised):
    first = prefix_scan(n, permutations, seed)
    # a coalition the third permutation is the first to reach
    target = next(mask for mask, (t, _) in first.items() if t == 2)
    calls = []

    def utility(coalition):
        calls.append(coalition.mask)
        if coalition.mask == target:
            raise error
        return 0.0

    with pytest.raises(raised) as err:
        shapley_montecarlo(GameSpec(n=n, utility=utility), permutations, seed=seed)
    assert calls.count(target) == 1
    t_fail, prefix = first[target]
    assert list(err.value.details.items()) == [
        ("coalition", hex_key(target, n)),
        ("permutation_index", t_fail),
        ("prefix", prefix),
    ]


def test_a_truncated_failure_names_the_first_scan_still_running():
    # U(S) = 1 when player 0 is in S: a scan stops at the prefix that adds
    # player 0. Permutation 5 begins (0, 2), so its scan stops at step 1 and
    # never reaches {0, 2}; permutation 11, which begins (2, 0), does.
    n, seed, permutations, target = 4, 5, 40, 0b0101
    first = prefix_scan(n, permutations, seed)
    assert first[target] == (5, (0, 2))

    def batch(masks, n):
        for mask in masks:
            if mask == target:
                raise ValueError("boom")
            yield float(mask & 1)

    with pytest.raises(UtilityOracleError) as err:
        shapley_montecarlo(GameSpec(n=n, batch=batch), permutations, truncation_tol=0.5,
                           seed=seed)
    details = err.value.details
    assert (details["permutation_index"], details["prefix"]) == (11, (2, 0))


def test_efficiency_on_seeded_games():
    for seed in range(20):
        game = random_table_game(2 + seed % 7, seed)
        result = shapley_exact(game)
        total = math.fsum(result.values)
        assert abs(total - (result.u_full - result.u_empty)) < 1e-9


def test_null_player_gets_zero():
    # utility ignores player 2 entirely
    base = random_table_game(4, 99)

    def utility(coalition):
        return base.utility(Coalition(coalition.mask & ~0b100, 4))

    values = shapley_exact(GameSpec(n=4, utility=utility)).values
    assert abs(values[2]) < 1e-12


def test_symmetric_players_get_equal_values():
    # utility depends only on |S| and |S & {0, 1}|, so 0 and 1 are symmetric
    def utility(coalition):
        overlap = len({0, 1} & set(coalition.indices()))
        return coalition.mask.bit_count() * 0.25 + (0.4, 0.1, 0.9)[overlap]

    values = shapley_exact(GameSpec(n=5, utility=utility)).values
    assert abs(values[0] - values[1]) < 1e-12


def test_linearity():
    g1 = random_table_game(5, 7)
    g2 = random_table_game(5, 8)

    def combined(coalition):
        return g1.utility(coalition) + 2.0 * g2.utility(coalition)

    v1 = shapley_exact(g1).values
    v2 = shapley_exact(g2).values
    v = shapley_exact(GameSpec(n=5, utility=combined)).values
    for a, b, c in zip(v, v1, v2):
        assert abs(a - (b + 2.0 * c)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_efficiency_property(seed, n):
    game = random_table_game(n, seed)
    result = shapley_exact(game)
    assert abs(math.fsum(result.values) - (result.u_full - result.u_empty)) < 1e-9


# ---------------------------------------------------------------------------
# rational reference equivalence


def rational_table_game(n, seed):
    rng = ReferenceSplitMix64(seed)
    table = [Fraction(rng.randbelow(1000), 1000) for _ in range(1 << n)]
    return lambda coalition: table[coalition.mask]


def test_exact_equals_permutation_bruteforce_rationally():
    for seed in (0, 1, 2):
        n = 2 + seed
        utility = rational_table_game(n, seed)
        direct = shapley_subset_rational(n, utility)
        brute = shapley_permutation_rational(n, utility)
        assert direct == brute  # exact Fraction equality
        game = GameSpec(n=n, utility=lambda c, u=utility: float(u(c)),
                        u_empty=float(utility(Coalition(0, n))))
        assert shapley_exact(game).values == pytest.approx([float(v) for v in brute],
                                                           abs=1e-12)


def test_rational_caps():
    with pytest.raises(CapacityError):
        shapley_permutation_rational(9, lambda c: Fraction(0))


# ---------------------------------------------------------------------------
# Monte Carlo


def test_montecarlo_converges_on_glove(glove_game):
    exact = shapley_exact(glove_game).values
    result = shapley_montecarlo(glove_game, permutations=4000, seed=11)
    assert result.method is Method.MONTE_CARLO
    assert result.samples == 4000
    assert result.seed == 11
    for got, want, se in zip(result.values, exact, result.stderr):
        assert abs(got - want) < 0.05
        assert se > 0.0


def test_montecarlo_is_deterministic_per_seed(glove_game):
    a = shapley_montecarlo(glove_game, permutations=200, seed=3)
    b = shapley_montecarlo(glove_game, permutations=200, seed=3)
    c = shapley_montecarlo(glove_game, permutations=200, seed=4)
    assert a.values == b.values and a.stderr == b.stderr
    assert a.values != c.values


def test_montecarlo_single_permutation_stderr_zero(glove_game):
    result = shapley_montecarlo(glove_game, permutations=1, seed=0)
    assert result.stderr == (0.0, 0.0, 0.0)
    # one permutation's marginals telescope to U(full) - U(empty)
    assert abs(math.fsum(result.values) - (result.u_full - result.u_empty)) < 1e-12


def test_montecarlo_parameter_validation(glove_game):
    with pytest.raises(PreconditionError):
        shapley_montecarlo(glove_game, permutations=0)
    for tol in (-0.1, math.nan):
        with pytest.raises(PreconditionError):
            shapley_montecarlo(glove_game, permutations=10, truncation_tol=tol)


def test_truncation_skips_saturated_tail():
    # utility saturates at 1.0 as soon as anyone joins
    n, T = 6, 50

    def saturating(coalition):
        return 1.0 if coalition.mask.bit_count() else 0.0

    plain = CountingOracle(saturating)
    shapley_montecarlo(GameSpec(n=n, utility=plain), permutations=T, seed=5)
    truncated = CountingOracle(saturating)
    result = shapley_montecarlo(
        GameSpec(n=n, utility=truncated), permutations=T, seed=5, truncation_tol=1e-9
    )
    # each distinct coalition once: U(full), U(empty), then the scanned prefixes;
    # truncated scans stop at their first member
    assert plain.calls == len(prefix_scan(n, T, seed=5).keys() | {0})
    assert truncated.calls == len(prefix_scan(n, T, seed=5, depth=1).keys() | {0, (1 << n) - 1})
    assert truncated.calls < plain.calls
    # estimates stay unbiased: each player's value is 1/n
    assert abs(math.fsum(result.values) - 1.0) < 1e-12


def test_truncation_tol_zero_disables_truncation():
    # constant game: every prefix utility equals U(full) exactly, yet tol=0
    # must still scan every permutation in full
    n, T = 4, 10
    oracle = CountingOracle(lambda c: 0.5)
    result = shapley_montecarlo(
        GameSpec(n=n, utility=oracle), permutations=T, seed=1, truncation_tol=0.0
    )
    assert oracle.calls == len(prefix_scan(n, T, seed=1).keys() | {0}) > 2
    assert result.values == (0.0,) * n


def test_truncation_handles_empty_prefix():
    # U(empty) already within tol of U(full): permutations are skipped entirely
    oracle = CountingOracle(lambda c: 0.5)
    result = shapley_montecarlo(
        GameSpec(n=4, utility=oracle), permutations=10, seed=1, truncation_tol=1e-6
    )
    assert oracle.calls == 2
    assert result.values == (0.0,) * 4


def result_bits(result):
    """Every field of a ShapleyResult, each float by its exact bits."""
    floats = (*result.values, *result.stderr, result.u_full, result.u_empty)
    return ([x.hex() for x in floats], result.method, result.samples, result.seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=60), st.sampled_from((0.0, 0.01)))
def test_montecarlo_matches_the_scalar_reference_bit_for_bit(n, seed, permutations, tol):
    game = random_table_game(n, seed)
    got = shapley_montecarlo(game, permutations, truncation_tol=tol, seed=seed)
    want = reference_shapley_montecarlo(game, permutations, truncation_tol=tol, seed=seed)
    assert result_bits(got) == result_bits(want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=60), st.sampled_from((0.0, 0.01)))
def test_montecarlo_asks_each_distinct_coalition_once_in_first_order(n, seed, permutations,
                                                                       tol):
    base = random_table_game(n, seed)
    engine, reference = [], []

    def recording(masks):
        def utility(coalition):
            masks.append(coalition.mask)
            return round(base.utility(coalition) * 8) / 8   # coarse, so truncation fires

        return GameSpec(n=n, utility=utility, u_empty=base.u_empty)

    shapley_montecarlo(recording(engine), permutations, truncation_tol=tol, seed=seed)
    reference_shapley_montecarlo(recording(reference), permutations, truncation_tol=tol,
                                 seed=seed)
    if tol > 0:     # a truncated run asks position by position within a chunk
        assert engine == position_major(reference, n)
    else:
        assert engine == list(dict.fromkeys(reference))


def ask_order_cases():
    """(n, permutations) just below and just above 2^n = permutations * n,
    where the engine moves from a first-appearance dict to a table of 2^n
    first positions, and on that line."""
    for n in range(1, 11):
        line = -(-(1 << n) // n)    # the least T with 2^n <= T * n
        yield n, line - 1
        yield n, line + 1
    yield 4, 4
    yield 8, 32


@pytest.mark.parametrize("n, permutations", [*ask_order_cases(), (10, 103)])
def test_montecarlo_asks_in_first_appearance_order_on_both_sides_of_the_table_rule(
        n, permutations):
    seed = 1000 * n + permutations
    asked = []
    game = recording_table_game(n, seed, asked)
    result = shapley_montecarlo(game, permutations, seed=seed)
    first = prefix_scan(n, permutations, seed)
    assert asked == list(dict.fromkeys([(1 << n) - 1, 0, *first]))
    if (n, permutations) == (10, 103):
        # the table rule holds (1,024 <= 1,030), yet some coalitions are never reached
        assert 1 << n <= permutations * n and len(asked) < 1 << n
        marginals, u_full, u_empty = reference_marginals(game, permutations, seed=seed)
        means = [math.fsum(column) / permutations for column in marginals.T]
        assert result.values == tuple(means)
        assert result.stderr == tuple(
            reference_stderr(column, mean) for column, mean in zip(marginals.T, means))
        assert (result.u_full, result.u_empty) == (u_full, u_empty)


@pytest.mark.parametrize("tol", [0.0, 0.01])
def test_montecarlo_matches_the_scalar_reference_on_a_long_run(tol):
    # table values drawn at a coarse grid, so truncation fires on some prefixes
    base = random_table_game(7, 31)
    game = GameSpec(n=7, utility=lambda c: round(base.utility(c) * 8) / 8,
                    u_empty=round(base.u_empty * 8) / 8)
    got = shapley_montecarlo(game, 3000, truncation_tol=tol, seed=2**64 - 1)
    want = reference_shapley_montecarlo(game, 3000, truncation_tol=tol, seed=2**64 - 1)
    assert result_bits(got) == result_bits(want)


def hashed_game(n, seed):
    """A game of any size: each coalition's utility is mixed from its mask onto
    a grid of 1/1024, so a 0.01 truncation fires on some prefixes."""

    def utility(coalition):
        return ((coalition.mask + seed) * 0x9E3779B97F4A7C15 >> 32) % 1024 / 1024

    return GameSpec(n=n, utility=utility, u_empty=utility(Coalition(0, n)))


@pytest.mark.parametrize("tol", [0.0, 0.01])
@pytest.mark.parametrize("n, permutations", [
    # the chunk edges of the array passes, at few players
    (4, 2047), (4, 2048), (3, 2049), (5, 4097),
    # mask widths: int64 masks up to 63 players, Python ints beyond
    (1, 3), (2, 5), (63, 3), (64, 3), (257, 2),
])
def test_montecarlo_matches_the_scalar_reference_at_chunk_edges_and_mask_widths(
        n, permutations, tol):
    seed = 2**64 - permutations
    base = hashed_game(n, seed)
    engine, reference = [], []

    def recording(masks):
        def utility(coalition):
            masks.append(coalition.mask)
            return base.utility(coalition)

        return GameSpec(n=n, utility=utility, u_empty=base.u_empty)

    got = shapley_montecarlo(recording(engine), permutations, truncation_tol=tol, seed=seed)
    want = reference_shapley_montecarlo(recording(reference), permutations,
                                        truncation_tol=tol, seed=seed)
    assert result_bits(got) == result_bits(want)
    if tol > 0:     # a truncated run asks position by position within a chunk
        assert engine == position_major(reference, n)
    else:
        assert engine == list(dict.fromkeys(reference))


def test_montecarlo_squares_deviations_with_pow():
    # seeded so that x * x, numpy's square, would change a standard error bit
    n, permutations, seed = 8, 4, 576
    game = random_table_game(n, seed)
    marginals, _, _ = reference_marginals(game, permutations, seed=seed)
    means = [math.fsum(column) / permutations for column in marginals.T]
    by_pow = [reference_stderr(c, mean) for c, mean in zip(marginals.T, means)]
    by_mul = [reference_stderr(c, mean, lambda x: x * x) for c, mean in zip(marginals.T, means)]
    if by_pow == by_mul:
        pytest.skip("this C library's pow squares these deviations as x * x does")
    assert shapley_montecarlo(game, permutations, seed=seed).stderr == tuple(by_pow)


def engine_peak(permutations, n=12):
    """Traced peak bytes of the engine alone on an n-player game whose batch
    reads a ready table."""
    table = [mask / (1 << n) for mask in range(1 << n)]
    game = GameSpec(n=n, utility=None, batch=lambda masks, n: [table[m] for m in masks])
    tracemalloc.start()
    try:
        shapley_montecarlo(game, permutations, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_montecarlo_memory_holds_no_table_of_marginals():
    # 1.17 MB measured (1.49 MB while the engine counted as it asked), with
    # the 0.39 MB table of a count per key p << n | S that the count keeps
    # when all 4,096 coalitions were asked for; an (n, T) float64 table of
    # marginals alone takes 1.92 MB
    small = engine_peak(20_000)
    assert small <= 1_800_000
    # four times the permutations add only the (T, n) uint8 permutation table
    assert engine_peak(80_000) - small <= 60_000 * 12 + 50_000


def test_montecarlo_memory_of_a_scan_that_never_sees_every_coalition():
    # 32,000 prefixes over 65,536 coalitions: the ask deduplicates every chunk
    # and the count merges every chunk's counts into the sorted tally. 2.18 MB
    # measured before the scan stopped at all coalitions, 2.11 MB after, and
    # 1.60 MB since the engine asks before it counts; bound: 10% over the first
    assert engine_peak(2_000, n=16) <= 2_400_000


def test_truncated_montecarlo_memory_holds_no_table_of_marginals():
    # every scan stops at its second step, U(S) = min(|S|, 2) / 2: the steps
    # cost counts of a few hundred keys, not an (n, T) table of marginals
    n, permutations = 12, 20_000
    game = GameSpec(n=n, batch=lambda masks, n: [min(m.bit_count(), 2) / 2 for m in masks])
    tracemalloc.start()
    try:
        result = shapley_montecarlo(game, permutations, truncation_tol=1e-9, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * permutations
    assert math.isclose(math.fsum(result.values), 1.0)


def scaled_game(n, seed, scale, levels=None):
    """``random_table_game`` times ``scale``: continuous utilities, or with
    ``levels`` drawn from a grid of that many steps in [0, 1)."""
    base = random_table_game(n, seed)

    def utility(coalition):
        u = base.utility(coalition)
        return (math.floor(u * levels) / levels if levels else u) * scale

    return GameSpec(n=n, utility=utility, u_empty=utility(Coalition(0, n)))


def signed_zero_game(n, seed):
    """Utilities of -0.0, 0.0, -0.5 and 0.5 by a hash of the mask, so most
    marginals repeat and some are -0.0."""

    def utility(coalition):
        return (-0.0, 0.0, -0.5, 0.5)[(coalition.mask * 0x9E3779B97F4A7C15 + seed) >> 20 & 3]

    return GameSpec(n=n, utility=utility, u_empty=utility(Coalition(0, n)))


def mixed_magnitude_game(n, seed):
    """Player 0 adds 2^995, which absorbs a small grid of utilities: its
    marginal is always 2^995, the others' are 0 or small."""
    base = random_table_game(n, seed)

    def utility(coalition):
        return 2.0 ** 995 * (coalition.mask & 1) + round(base.utility(coalition) * 64) / 64

    return GameSpec(n=n, utility=utility, u_empty=utility(Coalition(0, n)))


@pytest.mark.parametrize("tol", [0.0, 0.01])
@pytest.mark.parametrize("game, permutations", [
    # continuous utilities: almost every marginal distinct
    (random_table_game(10, 5), 2000),
    # heavy repeats, with signed zeros among them
    (signed_zero_game(6, 11), 3000),
    (scaled_game(8, 4, 1.0, levels=4), 2049),
    # one permutation
    (random_table_game(7, 8), 1),
    (random_table_game(1, 8), 1),
    # the top and the bottom of the float range: squares near 1e300, sums of
    # 2^995, subnormal utilities and subnormal squares
    (scaled_game(6, 9, 1e150), 500),
    (mixed_magnitude_game(6, 10), 1000),
    (scaled_game(6, 12, 2.0 ** -1074, levels=2 ** 20), 500),
    (scaled_game(6, 13, 2.0 ** -530), 500),
])
def test_montecarlo_statistics_match_the_scalar_reference_bit_for_bit(game, permutations, tol):
    got = shapley_montecarlo(game, permutations, truncation_tol=tol, seed=permutations)
    want = reference_shapley_montecarlo(game, permutations, truncation_tol=tol,
                                        seed=permutations)
    assert result_bits(got) == result_bits(want)


@pytest.mark.parametrize("n", [57, 58, 63, 64])
def test_montecarlo_matches_the_scalar_reference_at_the_key_width(n):
    # a key p << n | S fits an int64 up to 57 players
    seed, permutations = 2**63 + 5, 40
    base = hashed_game(n, seed)
    engine, reference = [], []

    def recording(masks):
        def utility(coalition):
            masks.append(coalition.mask)
            return base.utility(coalition)

        return GameSpec(n=n, utility=utility, u_empty=base.u_empty)

    got = shapley_montecarlo(recording(engine), permutations, seed=seed)
    want = reference_shapley_montecarlo(recording(reference), permutations, seed=seed)
    assert result_bits(got) == result_bits(want)
    assert engine == list(dict.fromkeys(reference))


# The untruncated Monte Carlo pass before the engine stopped deduplicating
# prefixes once every coalition had appeared, kept verbatim as the reference
# of that switch: every chunk's prefixes go through one dict.fromkeys, and
# every chunk's step counts are merged into the sorted tally (the truncated
# scan's step lengths left out).


def dedupe_and_merge_steps(order: np.ndarray, tally: list):
    n = order.shape[1]
    for start, prefixes in _prefixes(order):
        steps = order[start:start + len(prefixes)].astype(tally[0].dtype)
        steps <<= n
        steps[:, 1:] |= prefixes[:, :-1].astype(steps.dtype, copy=False)
        tally[:] = dedupe_and_merge_merge(*tally, *np.unique(steps, return_counts=True))
        yield prefixes


def dedupe_and_merge_merge(keys, counts, more, more_counts):
    at = np.searchsorted(keys, more)
    found = at < len(keys)
    found[found] = keys[at[found]] == more[found]
    counts[at[found]] += more_counts[found]
    new = ~found
    if new.any():
        keys = np.insert(keys, at[new], more[new])
        counts = np.insert(counts, at[new], more_counts[new])
    return keys, counts


def dedupe_and_merge_montecarlo(game: GameSpec, permutations: int, seed: int) -> ShapleyResult:
    n = game.n
    full = (1 << n) - 1
    rng = SplitMix64(seed)
    tally = [np.empty(0, dtype=_int_dtype(n + (n - 1).bit_length())), np.empty(0, dtype=np.int64)]
    order = rng.shuffles(n, permutations)
    masks = list(dict.fromkeys(chain((full, 0), chain.from_iterable(
        prefixes.ravel().tolist() for prefixes in dedupe_and_merge_steps(order, tally)))))
    utilities = _utilities(game, masks, lambda m: _first_reach(order, m))
    u_full, u_empty = utilities[0], utilities[1]
    sorted_masks = np.array(masks, dtype=_int_dtype(n))
    rank = np.argsort(sorted_masks)
    sorted_masks, by_mask = sorted_masks[rank], np.array(utilities, dtype=np.float64)[rank]
    del masks, utilities, rank
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
    return ShapleyResult(values=tuple(values), stderr=tuple(stderr), method=Method.MONTE_CARLO,
                         samples=permutations, seed=seed, u_full=u_full, u_empty=u_empty)


def recording_table_game(n, seed, asked, fail=None):
    """``random_table_game`` as a batch that records the masks it is asked
    for, failing on ``fail``."""
    base = random_table_game(n, seed)

    def batch(masks, n):
        for mask in masks:
            asked.append(mask)
            if mask == fail:
                raise ValueError("boom")
            yield base.utility(Coalition(mask, n))

    return GameSpec(n=n, batch=batch, u_empty=base.u_empty)


@pytest.mark.parametrize("chunk", [1, 3, 512])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 10])
def test_montecarlo_counts_the_same_once_every_coalition_has_appeared(monkeypatch, n, chunk):
    monkeypatch.setattr(game_module, "_CHUNK", chunk)
    seed = 7
    first = prefix_scan(n, 4000, seed)
    assert len(first) == (1 << n) - 1          # every coalition but the empty one appears
    last = max(t for t, _ in first.values())   # the permutation that shows the last new one
    # every coalition in before the first chunk (n = 1), by its end
    # partway, only in the last chunk, or never
    # (n = 2, 3 and 8 at chunks of 512), partway, only in the last chunk, or never
    for permutations in sorted({last // chunk * chunk + 2 * chunk + 1, last + 1, last} - {0}):
        seen = {mask: t for mask, (t, _) in first.items() if t < permutations}
        targets = [None, max(seen, key=seen.get)]   # the last coalition to appear fails
        for target in targets:
            asked, want_asked = [], []
            game = recording_table_game(n, seed, asked, target)
            reference = recording_table_game(n, seed, want_asked, target)
            if target is None:
                got = shapley_montecarlo(game, permutations, seed=seed)
                want = dedupe_and_merge_montecarlo(reference, permutations, seed)
                assert result_bits(got) == result_bits(want)
            else:
                with pytest.raises(UtilityOracleError) as got:
                    shapley_montecarlo(game, permutations, seed=seed)
                with pytest.raises(UtilityOracleError) as want:
                    dedupe_and_merge_montecarlo(reference, permutations, seed)
                assert got.value.details == want.value.details
                if target != (1 << n) - 1:     # U(full) is asked for before any scan
                    assert got.value.details["permutation_index"] == seen[target]
            assert asked == want_asked


@pytest.mark.parametrize("n, permutations", [(4, 300), (8, 5000), (12, 20000)])
def test_the_slot_count_and_the_sorted_merge_tally_the_same(n, permutations):
    order = SplitMix64(n).shuffles(n, permutations)
    reached = np.unique(np.concatenate([p.ravel() for _, p in _prefixes(order)]))
    assert len(reached) == (1 << n) - 1     # every coalition but the empty one appears
    cut = np.random.default_rng(n).integers(1, n + 1, size=permutations)
    for lengths in (None, cut):
        slots_keys, slots_counts = _tally(order, lengths, True)
        merged_keys, merged_counts = _tally(order, lengths, False)
        assert slots_keys.dtype == merged_keys.dtype
        assert slots_keys.tolist() == merged_keys.tolist()
        assert slots_counts.tolist() == merged_counts.tolist()
        assert slots_counts.sum() == (n * permutations if lengths is None else lengths.sum())


@pytest.mark.parametrize("weights", [[1, 1, 1], [2**34, 3, 2**35 - 1], [5, 2**26 + 1, 2**27],
                                     [2**62, 1, 2**40 + 7]])
@pytest.mark.parametrize("values", [
    [0.1, -0.30000000000000004, 1e-17],
    [1.7e308, -1.6e308, 1e292],
    [5e-324, -2.5e-323, 2.0 ** -1022],
    [-0.0, 0.0, 3.0],
    # terms at the float maximum, each weighted by the weight at its place:
    # with weights of 1 the sums fit
    [sys.float_info.max],
    [sys.float_info.max, -1e308],
])
def test_exact_sum_is_the_correctly_rounded_weighted_sum(values, weights):
    want = sum(Fraction(v) * w for v, w in zip(values, weights))
    if abs(want) > Fraction(sys.float_info.max):
        with pytest.raises(OverflowError):
            _exact_sum(values, weights)
    else:   # int / int rounds once, to nearest
        assert _exact_sum(values, weights).hex() == (want.numerator / want.denominator).hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-sys.float_info.max, max_value=sys.float_info.max),
                          st.integers(1, 2**40)), min_size=1, max_size=5),
       st.integers(1, 2**62))
def test_a_mean_whose_sum_leaves_the_float_range_is_rounded_once(terms, divisor):
    values, weights = [v for v, _ in terms], [w for _, w in terms]
    total = sum(Fraction(v) * w for v, w in zip(values, weights))
    mean = total / divisor
    try:
        want = mean.numerator / mean.denominator
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(values, weights, divisor)
    else:
        assert _exact_sum(values, weights, divisor).hex() == want.hex()
    # the Monte Carlo mean: the rounded sum over the count where it fits, else
    # the exact sum over the count, rounded once
    count = sum(weights)
    try:
        want = (total.numerator / total.denominator) / count
    except OverflowError:
        want = (total / count).numerator / (total / count).denominator
    got, error = _statistics(np.array(values), np.array(weights), count)
    assert got.hex() == want.hex()
    assert math.isfinite(error)   # squared deviations past the float range are scaled


# the edges of the finite-number rule: the float range's ends as ints and as
# floats, the ints just past them, the non-finite floats, a signed zero, and
# values of other types
_INT_MAX = int(sys.float_info.max)
FINITE_EDGES = [_INT_MAX, -_INT_MAX, _INT_MAX + 1, -_INT_MAX - 1, sys.float_info.max,
                -sys.float_info.max, math.inf, -math.inf, math.nan, -0.0, 0, 0.5, True,
                np.float64(0.5), "0.5"]


def per_value_rule(values):
    return all(type(x) in (int, float) and _finite_real(x) for x in values)


def test_finite_numbers_agrees_with_the_per_value_rule_on_the_edges():
    lists = [list(values) for size in range(4) for values in product(FINITE_EDGES, repeat=size)]
    for values in lists:
        assert finite_numbers(values) == per_value_rule(values), values


@given(st.lists(st.one_of(st.sampled_from(FINITE_EDGES), st.floats(),
                          st.integers(-2 ** 1030, 2 ** 1030))))
def test_finite_numbers_agrees_with_the_per_value_rule(values):
    assert finite_numbers(values) == per_value_rule(values)


def target_game(n, target, bad):
    """Utilities 0.25 * |S|, except ``bad`` on coalition ``target``."""
    return GameSpec(n=n, utility=lambda c: bad if c.mask == target else 0.25 * c.mask.bit_count())


@pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf, 10 ** 400])
@pytest.mark.parametrize("engine", ["exact", "loo", "mc", "mc-truncated"])
def test_a_utility_that_is_not_a_finite_real_fails_naming_its_coalition(engine, bad):
    # permutation 3, (3, 2, 1, 0), is the first to reach the target
    n, seed, permutations = 4, 7, 10
    full = (1 << n) - 1
    target = full - 1          # the full set minus player 0, which loo asks for
    game = target_game(n, target, bad)
    run = {
        "exact": lambda: shapley_exact(game),
        "loo": lambda: loo_values(game),
        "mc": lambda: shapley_montecarlo(game, permutations, seed=seed),
        "mc-truncated": lambda: shapley_montecarlo(game, permutations, truncation_tol=0.01,
                                                   seed=seed),
    }[engine]
    with pytest.raises(UtilityOracleError, match="not a finite real number") as err:
        run()
    details = err.value.details
    assert details["coalition"] == hex_key(target, n)
    if engine.startswith("mc"):
        t, prefix = prefix_scan(n, permutations, seed)[target]
        assert (details["permutation_index"], details["prefix"]) == (t, prefix)


@pytest.mark.parametrize("engine", ["mc", "mc-truncated"])
def test_a_failing_full_set_carries_no_permutation_context(engine):
    n, seed, permutations = 4, 3, 10
    full = (1 << n) - 1
    game = target_game(n, full, math.nan)
    tol = 0.01 if engine == "mc-truncated" else 0.0
    with pytest.raises(UtilityOracleError, match="not a finite real number") as err:
        shapley_montecarlo(game, permutations, truncation_tol=tol, seed=seed)
    details = err.value.details
    assert details["coalition"] == hex_key(full, n)
    assert "permutation_index" not in details and "prefix" not in details


def test_infinite_utilities_of_both_signs_fail_on_the_first():
    game = GameSpec(n=3, utility=lambda c: math.inf if c.mask & 1 else -math.inf)
    with pytest.raises(UtilityOracleError) as err:
        shapley_montecarlo(game, 5, seed=1)
    assert err.value.details["coalition"] == hex_key(7, 3)   # U(full) comes first


def test_numeric_utility_types_are_accepted():
    values = {0: 0, 1: np.float64(0.5), 2: Fraction(1, 4), 3: np.float32(1.0)}
    game = GameSpec(n=2, utility=lambda c: values[c.mask])
    floats = GameSpec(n=2, utility=lambda c: float(values[c.mask]))
    assert shapley_exact(game).values == (0.625, 0.375)
    for tol in (0.0, 0.01):
        got = shapley_montecarlo(game, 4, truncation_tol=tol, seed=1)
        want = shapley_montecarlo(floats, 4, truncation_tol=tol, seed=1)
        assert (got.values, got.stderr) == (want.values, want.stderr)


@pytest.mark.parametrize("tol", [0.0, 0.01])
def test_montecarlo_averages_marginals_whose_sum_leaves_the_float_range(tol):
    # player 0's eight marginals of 1.7e308 sum past the float range, but their mean fits
    game = GameSpec(n=3, utility=lambda c: 1.7e308 * (c.mask & 1))
    result = shapley_montecarlo(game, 8, truncation_tol=tol, seed=2)
    assert result.values == (1.7e308, 0.0, 0.0)
    assert result.stderr == (0.0, 0.0, 0.0)


def assert_near_exact_stderr(column, mean: float, error: float) -> None:
    """``error`` is the standard error of ``mean`` over ``column`` to a few
    roundings: its square against the formula's value in exact arithmetic."""
    column = [Fraction(float(x)) for x in column]
    t = len(column)
    want = sum((x - Fraction(mean)) ** 2 for x in column) / (t - 1) / t
    if want == 0:
        assert error == 0.0
    else:
        assert abs(Fraction(error) ** 2 / want - 1) < Fraction(1, 10 ** 15)


@pytest.mark.parametrize("tol", [0.0, 0.01])
def test_montecarlo_errors_whose_squares_leave_the_float_range_fit(tol):
    # marginals 1e200 apart: their squared deviations overflow, the errors do not
    game = GameSpec(n=3, utility=lambda c: 1e200 * (c.mask & 1) * (1 + (c.mask >> 1 & 1)))
    # seven permutations of the 8 put player 1 before player 0, one after
    result = shapley_montecarlo(game, 8, truncation_tol=tol, seed=15)
    marginals, _, _ = reference_marginals(game, 8, tol, seed=15)
    assert result.values == tuple(math.fsum(column) / 8 for column in marginals.T)
    for column, mean, error in zip(marginals.T, result.values, result.stderr):
        assert_near_exact_stderr(column, mean, error)
    assert result.stderr == (1.25e199, 1.25e199, 0.0)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_montecarlo_errors_whose_squares_underflow_are_kept(tol):
    # marginals 1e-200 apart: their squared deviations underflow to 0, the errors do not
    game = GameSpec(n=2, utility=lambda c: 1e-200 * (c.mask & 1) * (1 + (c.mask >> 1 & 1)))
    result = shapley_montecarlo(game, 8, truncation_tol=tol, seed=2)
    marginals, _, _ = reference_marginals(game, 8, tol, seed=2)
    assert result.values == tuple(math.fsum(column) / 8 for column in marginals.T)
    for column, mean, error in zip(marginals.T, result.values, result.stderr):
        assert error > 0.0
        assert_near_exact_stderr(column, mean, error)
    assert _statistics(np.array([1e-200, 2e-200]), np.array([1, 1]), 2) == (1.5e-200, 5e-201)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_montecarlo_errors_whose_squares_are_subnormal_keep_their_digits(tol):
    # deviations near 1e-161 square to subnormal floats, which hold only a few
    # significant bits: the errors are evaluated at a scale where they are normal
    game = scaled_game(6, 13, 2.0 ** -530)
    result = shapley_montecarlo(game, 500, truncation_tol=tol, seed=500)
    marginals, _, _ = reference_marginals(game, 500, tol, seed=500)
    assert result.values == tuple(math.fsum(column) / 500 for column in marginals.T)
    for column, mean, error in zip(marginals.T, result.values, result.stderr):
        assert error > 0.0
        assert_near_exact_stderr(column, mean, error)


@pytest.mark.parametrize("tol", [0.0, 0.01])
def test_montecarlo_equal_marginals_with_a_mean_one_ulp_off_have_an_error(tol):
    # the double-rounded mean lands one ulp below the common marginal, and
    # that ulp's square leaves the float range
    u_full = 4.981543705727602e188
    game = GameSpec(n=1, utility=lambda c: u_full * c.mask)
    result = shapley_montecarlo(game, 589, truncation_tol=tol)
    assert result.values == (4.981543705727601e188,)
    assert result.stderr == (2.5499334619513413e171,)   # the ulp over sqrt(588)
    assert_near_exact_stderr([u_full] * 589, *result.values, *result.stderr)


@pytest.mark.parametrize("tol", [0.0, 0.01])
@pytest.mark.parametrize("utility", [
    # a marginal that is itself past the float range, below -max
    lambda c: -1.7e308 if c.mask & 1 else 1.7e308 * (c.mask > 0),
    # a marginal past the float range only where player 0 joins {1, 2}
    lambda c: 1.7e308 * (c.mask & 1) - 1.7e308 * (c.mask == 6),
    # a marginal that is itself past the float range, above max
    lambda c: 1.7e308 if c.mask & 1 else -1.7e308 * (c.mask > 0),
])
def test_montecarlo_sums_past_the_float_range_fail_as_a_typed_error(utility, tol):
    game = GameSpec(n=3, utility=utility, u_empty=utility(Coalition(0, 3)))
    with pytest.raises(PromptShapError) as err:
        shapley_montecarlo(game, 8, truncation_tol=tol, seed=2)
    assert isinstance(err.value, PreconditionError)
    assert err.value.details == {"player": 0}


def test_montecarlo_averages_a_marginal_at_the_float_maximum():
    game = GameSpec(n=1, utility=lambda c: sys.float_info.max * c.mask)
    result = shapley_montecarlo(game, 1)
    assert result.values == shapley_exact(game).values == (sys.float_info.max,)
    assert result.stderr == (0.0,)
    result = shapley_montecarlo(game, 3)   # 3 * max does not fit, its mean does
    assert result.values == shapley_exact(game).values
    assert result.stderr == (0.0,)


@pytest.mark.parametrize("arguments", [
    {"permutations": True},
    {"permutations": 2.0},
    {"permutations": "3"},
    {"seed": 1.5},
    {"seed": False},
    {"seed": None},
    {"truncation_tol": "0.1"},
    {"truncation_tol": True},
])
def test_montecarlo_refuses_mistyped_arguments(glove_game, arguments):
    with pytest.raises(PreconditionError):
        shapley_montecarlo(glove_game, **{"permutations": 3, **arguments})


def test_montecarlo_takes_any_integer_as_an_int(glove_game):
    result = shapley_montecarlo(glove_game, np.int64(3), seed=np.uint64(5))
    assert type(result.samples) is int and type(result.seed) is int
    assert result == shapley_montecarlo(glove_game, 3, seed=5)
    assert json.loads(json.dumps(result.to_json_dict()))["samples"] == 3


@pytest.mark.parametrize("cap", [True, 20.0, "20"])
def test_exact_refuses_a_mistyped_cap(glove_game, cap):
    with pytest.raises(PreconditionError):
        shapley_exact(glove_game, exact_cap=cap)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_exact_sums_match_the_scalar_formula_bit_for_bit(n):
    game = random_table_game(n, 100 + n)
    table = [game.utility(Coalition(mask, n)) for mask in range(1 << n)]
    weights = [float(shapley_weight(n, s)) for s in range(n)]
    want = [
        math.fsum(weights[mask.bit_count()] * (table[mask | 1 << i] - table[mask])
                  for mask in range(1 << n) if not mask >> i & 1)
        for i in range(n)
    ]
    assert [x.hex() for x in shapley_exact(game).values] == [x.hex() for x in want]


def test_engines_hand_the_oracle_ordinary_coalitions():
    seen = []

    def utility(coalition):
        seen.append(coalition)
        return 0.0

    game = GameSpec(n=4, utility=utility)
    shapley_exact(game)
    shapley_montecarlo(game, permutations=3, seed=1)
    loo_values(game)
    for coalition in seen:
        assert type(coalition) is Coalition
        assert coalition == Coalition(coalition.mask, 4)
        assert hash(coalition) == hash(Coalition(coalition.mask, 4))


def test_montecarlo_efficiency_without_truncation():
    game = random_table_game(5, 123)
    result = shapley_montecarlo(game, permutations=300, seed=9)
    # permutation marginals telescope, so efficiency holds exactly per sample
    assert abs(math.fsum(result.values) - (result.u_full - result.u_empty)) < 1e-9


# ---------------------------------------------------------------------------
# leave-one-out


def test_loo_glove(glove_game):
    result = loo_values(glove_game)
    assert result.method is Method.LEAVE_ONE_OUT
    assert result.values == (1.0, 0.0, 0.0)
    assert result.u_empty == glove_game.u_empty


def test_loo_call_count_and_declared_u_empty():
    oracle = CountingOracle(lambda c: float(c.mask.bit_count()))
    game = GameSpec(n=6, utility=oracle, u_empty=0.25)
    result = loo_values(game)
    assert oracle.calls == 7  # n + 1, never the empty coalition
    assert result.u_empty == 0.25
    assert result.values == (1.0,) * 6


# ---------------------------------------------------------------------------
# the batch protocol


def recording_game(n, table, calls, u_empty=0.0):
    """A game whose batch reads ``table`` (mask -> utility) and records the
    masks of each call; its per-coalition oracle must never be called."""

    def batch(masks, n):
        calls.append(list(masks))
        for mask in masks:
            yield table[mask]

    def utility(coalition):
        raise AssertionError("the engines call the batch")

    return GameSpec(n=n, utility=utility, u_empty=u_empty, batch=batch)


def test_engines_ask_for_every_coalition_in_one_batch():
    n, seed, permutations = 4, 3, 10
    table = {mask: mask.bit_count() / n for mask in range(1 << n)}
    full = (1 << n) - 1
    calls = []
    game = recording_game(n, table, calls)
    shapley_exact(game)
    assert calls == [list(range(1 << n))]
    calls.clear()
    loo_values(game)
    assert calls == [[full, full - 1, full - 2, full - 4, full - 8]]
    calls.clear()
    shapley_montecarlo(game, permutations, seed=seed)
    prefixes = [m for m in prefix_scan(n, permutations, seed) if m != full]
    assert calls == [[full, 0, *prefixes]]


def test_truncated_montecarlo_asks_one_batch_per_prefix_position():
    n, seed, permutations = 4, 3, 10
    # a coalition of two or more is worth U(full), so every scan stops there
    table = {mask: float(mask.bit_count() >= 2) for mask in range(1 << n)}
    calls = []
    shapley_montecarlo(recording_game(n, table, calls), permutations, truncation_tol=0.1,
                       seed=seed)
    first = prefix_scan(n, permutations, seed, depth=2)   # in row order
    singletons = [m for m in first if m.bit_count() == 1]
    pairs = [m for m in first if m.bit_count() == 2]
    assert calls == [[(1 << n) - 1, 0], singletons, pairs]


@pytest.mark.parametrize("n, permutations", [(5, 2049), (9, 1500)])
def test_truncated_montecarlo_asks_at_most_one_batch_per_position_per_chunk(n, permutations):
    base = hashed_game(n, permutations)
    table = {mask: base.utility(Coalition(mask, n)) for mask in range(1 << n)}
    calls = []
    shapley_montecarlo(recording_game(n, table, calls), permutations, truncation_tol=0.01,
                       seed=permutations)
    assert calls[0] == [(1 << n) - 1, 0]
    assert 1 < len(calls) <= 1 + n * -(-permutations // game_module._CHUNK)
    for masks in calls[1:]:     # the prefixes of one position: one size, each asked once
        assert masks and len({m.bit_count() for m in masks}) == 1
    asked = list(chain.from_iterable(calls))
    assert len(asked) == len(set(asked))


@pytest.mark.parametrize("tol, depth", [(0.5, 0), (0.375, 1)], ids=["empty", "singletons"])
def test_a_prefix_exactly_at_the_tolerance_stops_its_scan(tol, depth):
    n, seed, permutations = 4, 3, 10
    # U(S) = |S| / 8: U(empty) = 0 is exactly 0.5 from U(full) = 0.5, and
    # each single player, at 0.125, exactly 0.375
    table = {mask: mask.bit_count() / (2 * n) for mask in range(1 << n)}
    calls = []
    game = recording_game(n, table, calls)
    result = shapley_montecarlo(game, permutations, truncation_tol=tol, seed=seed)
    rounds = [list(prefix_scan(n, permutations, seed, depth=1))] if depth else []
    assert calls == [[(1 << n) - 1, 0], *rounds]
    want = reference_shapley_montecarlo(game, permutations, truncation_tol=tol, seed=seed)
    assert result_bits(result) == result_bits(want)
    if not depth:
        assert result.values == result.stderr == (0.0,) * n


def test_replacing_the_utility_keeps_the_batch():
    calls = []
    game = recording_game(3, {mask: mask / 7 for mask in range(8)}, calls)
    replaced = dataclasses.replace(game, utility=lambda coalition: 1 / 0)
    assert replaced.batch is game.batch
    assert shapley_exact(replaced) == shapley_exact(game)
    assert GameSpec(n=3, utility=game.utility).batch is not game.batch


def test_loo_of_one_player_asks_for_the_empty_coalition():
    calls = []
    game = recording_game(1, {0: 0.125, 1: 0.75}, calls, u_empty=0.25)
    result = loo_values(game)
    assert calls == [[1, 0]]    # the full set minus player 0 is the empty coalition
    assert result.values == (0.75 - 0.125,)
    assert result.u_empty == 0.25


def test_a_wrapper_around_a_factory_oracle_sees_every_coalition(adversarial_fixture):
    # a tracer wraps an oracle this way; functools.wraps copies the wrapped
    # function's attributes, so an oracle that kept its batch in an attribute
    # would hand that copy to the engines, past the wrapper
    matrix, validation = adversarial_fixture
    n = len(matrix.prompt_ids)
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    assert GameSpec(n=n, utility=oracle).batch is oracle.batch
    through = []

    @functools.wraps(oracle)
    def counted(coalition):
        through.append(coalition.mask)
        return oracle(coalition)

    @functools.wraps(oracle.batch)
    def counted_batch(masks, n):
        through.extend(masks)
        return oracle.batch(masks, n)

    table = dict(enumerate(oracle.batch(range(1 << n), n)))
    runs = {
        "exact": shapley_exact,
        "loo": loo_values,
        "mc": lambda game: shapley_montecarlo(game, 50, seed=4),
        "mc-truncated": lambda game: shapley_montecarlo(game, 50, truncation_tol=0.1, seed=4),
        "curve": lambda game: rank_add_curve([0.3, 0.1, 0.5, 0.2, 0.4, 0.0],
                                             list(matrix.prompt_ids), game.batch),
    }
    for name, run in runs.items():
        asked = []
        expected = run(recording_game(n, table, asked))
        for game in (GameSpec(n=n, utility=counted), GameSpec(n=n, batch=counted_batch)):
            through.clear()
            assert run(game) == expected, name
            assert through == [mask for call in asked for mask in call] != [], name


def test_a_game_needs_a_utility_or_a_batch():
    with pytest.raises(PreconditionError, match="utility or a batch"):
        GameSpec(n=2)


@pytest.mark.parametrize("yielded, failing", [(3, 3), (0, 0), (5, 3)])
def test_a_batch_of_the_wrong_length_fails_on_a_coalition(yielded, failing):
    # too few utilities fail on the first coalition without one, too many on the last
    game = GameSpec(n=2, utility=None, batch=lambda masks, n: [0.5] * yielded)
    with pytest.raises(UtilityOracleError, match=f"gave {yielded} utilities") as err:
        shapley_exact(game)
    assert err.value.details["coalition"] == hex_key(failing, 2)


def failing_after_the_last(masks, n):
    yield from (mask.bit_count() / n for mask in masks)
    raise ValueError("boom after the last utility")


# exact asks for masks 0..3, leave-one-out for the full set and then each
# set without one player, the last without player 1
@pytest.mark.parametrize("engine, last", [(shapley_exact, 0b11), (loo_values, 0b01)])
def test_a_batch_that_fails_after_its_last_utility_fails_on_the_last_coalition(engine, last):
    game = GameSpec(n=2, batch=failing_after_the_last)
    with pytest.raises(UtilityOracleError, match="boom after the last") as err:
        engine(game)
    assert err.value.details["coalition"] == hex_key(last, 2)


def test_a_curve_whose_batch_fails_after_its_last_utility_fails_at_k_n():
    curve = rank_add_curve([0.2, 0.1, 0.3], list("abc"), failing_after_the_last)
    assert (curve.failed_k, curve.error) == (3, "boom after the last utility")
    assert [(p.added_prompt_id, p.utility) for p in curve.points] == [
        ("c", 1 / 3), ("a", 2 / 3), ("b", None)]


# ---------------------------------------------------------------------------
# result serialization


def test_result_json_shape(glove_game):
    doc = shapley_exact(glove_game).to_json_dict(["a", "b", "c"])
    assert doc["method"] == "exact"
    assert doc["n"] == 3
    assert "seed" not in doc
    assert [p["id"] for p in doc["players"]] == ["a", "b", "c"]
    assert {"value", "stderr"} <= set(doc["players"][0])

    mc = shapley_montecarlo(glove_game, permutations=10, seed=2).to_json_dict()
    assert mc["seed"] == 2
    assert [p["id"] for p in mc["players"]] == ["p0", "p1", "p2"]


def test_result_json_id_count_checked(glove_game):
    with pytest.raises(PreconditionError):
        shapley_exact(glove_game).to_json_dict(["only", "two"])


def test_game_needs_players():
    with pytest.raises(PreconditionError):
        GameSpec(n=0, utility=lambda c: 0.0)


@pytest.mark.parametrize("n", [2.0, True, False, "3", None, Fraction(3)],
                         ids=["float", "true", "false", "string", "none", "fraction"])
def test_game_refuses_a_player_count_that_is_not_an_integer(n):
    with pytest.raises(PreconditionError, match="player count must be an integer"):
        GameSpec(n=n, utility=lambda c: 0.0)


@pytest.mark.parametrize("n", [3, np.int64(3), np.uint8(3)], ids=["int", "int64", "uint8"])
def test_game_takes_any_integer_player_count_as_an_int(n):
    game = GameSpec(n=n, utility=lambda c: float(c.mask.bit_count()))
    assert type(game.n) is int and game.n == 3
    assert shapley_exact(game).values == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the batch contract of the library oracles

LIBRARY_ORACLES = ["vote", "average", "live", "lipschitz"]


def library_batch(kind, request):
    """(batch, source, requests) of a library oracle over 5 players: its
    mask-level batch, how its player-count error names it, and a count of
    the chat requests it has sent. A matrix oracle's first scoring fails, as
    its validation set holds an instance the matrix lacks, so a refusal that
    comes first is told apart from it."""
    if kind == "live":
        tmp_path, stub = request.getfixturevalue("tmp_path"), request.getfixturevalue("stub")
        write_jsonl(tmp_path / "manifest.jsonl", stub_manifest_rows())
        write_jsonl(tmp_path / "questions.jsonl", stub_question_rows())
        oracle = augmentation_utility(load_manifest(str(tmp_path / "manifest.jsonl")),
                                      load_questions(str(tmp_path / "questions.jsonl")),
                                      Task.MULTIPLE_CHOICE, ResponseCache(),
                                      request.getfixturevalue("stub_api"))
        return oracle.batch, "the manifest has 5", lambda: stub.state.chat_requests
    if kind == "lipschitz":
        game = LipschitzGame(np.eye(5), lambda e: float(e[0]), 1.0).game()
        return game.batch, "the game has 5", lambda: 0
    matrix = PredictionMatrix(prompt_ids=tuple("abcde"), instance_ids=("q0",),
                              mode=Mode.PROBABILISTIC, num_labels=2,
                              prob=np.full((5, 1, 2), 0.5))
    unknown = ValidationSet(instances=(("q0", 0), ("nope", 1)), num_labels=2)
    rule = Rule.VOTE if kind == "vote" else Rule.AVERAGE_ARGMAX
    return matrix_utility(matrix, unknown, rule).batch, "the matrix has 5 prompts", lambda: 0


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", LIBRARY_ORACLES)
def test_a_library_batch_over_the_wrong_player_count_fails_before_scoring(kind, n, request):
    batch, source, requests = library_batch(kind, request)
    values, error = run_batch(batch, [0b1, 0b11], n)
    assert values == [] and type(error) is ConsistencyError
    assert str(error) == f"coalition is over {n} players but {source}"
    assert requests() == 0


@pytest.mark.parametrize("bad", [-1, 1 << 5, 1 << 5 | 1], ids=["negative", "n", "n-and-0"])
@pytest.mark.parametrize("kind", LIBRARY_ORACLES)
def test_a_library_batch_refuses_a_mask_outside_its_players_before_scoring(kind, bad,
                                                                            request):
    batch, _, requests = library_batch(kind, request)
    values, error = run_batch(batch, [0b1, bad], 5)
    assert values == [] and type(error) is PreconditionError
    assert str(error) == f"coalition mask {bad:#x} has bits outside players 0..4"
    assert requests() == 0
