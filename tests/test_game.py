import dataclasses
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap.coalition import Coalition
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
    _exact_sum,
    loo_values,
    shapley_exact,
    shapley_montecarlo,
    shapley_weight,
)

from conftest import (
    ReferenceSplitMix64,
    glove_utility,
    random_table_game,
    reference_marginals,
    reference_shapley_montecarlo,
    reference_stderr,
    shapley_permutation_rational,
    shapley_subset_rational,
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
        if coalition.size == 2:
            raise ValueError("boom")
        return 0.0

    with pytest.raises(UtilityOracleError) as err:
        shapley_exact(GameSpec(n=3, utility=broken))
    assert "coalition" in err.value.details


def prefix_scan(n, permutations, seed, depth=None):
    """Each prefix mask of the seeded permutations (the first ``depth`` prefixes
    of each) mapped to (permutation index, prefix) where it first appears."""
    rng = ReferenceSplitMix64(seed)
    perm = list(range(n))
    first = {}
    for t in range(permutations):
        rng.shuffle(perm)
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
    n, seed, permutations = 5, 3, 10
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
        ("coalition", Coalition(target, n).to_hex()),
        ("permutation_index", t_fail),
        ("prefix", prefix),
    ]


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
        return coalition.size * 0.25 + (0.4, 0.1, 0.9)[overlap]

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
        return 1.0 if coalition.size else 0.0

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
    assert engine == list(dict.fromkeys(reference))


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
    assert engine == list(dict.fromkeys(reference))


def test_montecarlo_squares_deviations_with_pow():
    # seeded so that x * x, numpy's square, would change a standard error bit
    n, permutations, seed = 8, 4, 33
    game = random_table_game(n, seed)
    marginals, _, _ = reference_marginals(game, permutations, seed=seed)
    means = [math.fsum(column) / permutations for column in marginals.T]
    by_pow = [reference_stderr(c, mean) for c, mean in zip(marginals.T, means)]
    by_mul = [reference_stderr(c, mean, lambda x: x * x) for c, mean in zip(marginals.T, means)]
    if by_pow == by_mul:
        pytest.skip("this C library's pow squares these deviations as x * x does")
    assert shapley_montecarlo(game, permutations, seed=seed).stderr == tuple(by_pow)


def engine_peak(permutations):
    """Traced peak bytes of the engine alone on a 12-player game whose batch
    reads a ready table."""
    n = 12
    table = [mask / (1 << n) for mask in range(1 << n)]
    game = GameSpec(n=n, utility=None, batch=lambda masks, n: [table[m] for m in masks])
    tracemalloc.start()
    try:
        shapley_montecarlo(game, permutations, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_montecarlo_memory_holds_no_table_of_marginals():
    # 1.55 MB measured; an (n, T) float64 table of marginals alone takes 1.92 MB
    small = engine_peak(20_000)
    assert small <= 1_800_000
    # four times the permutations add only the (T, n) uint8 permutation table
    assert engine_peak(80_000) - small <= 60_000 * 12 + 50_000


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


@pytest.mark.parametrize("weights", [[1, 1, 1], [2**34, 3, 2**35 - 1], [5, 2**26 + 1, 2**27]])
@pytest.mark.parametrize("values", [
    [0.1, -0.30000000000000004, 1e-17],
    [1.7e308, -1.6e308, 1e292],
    [5e-324, -2.5e-323, 2.0 ** -1022],
    [-0.0, 0.0, 3.0],
])
def test_exact_sum_is_the_correctly_rounded_weighted_sum(values, weights):
    want = sum(Fraction(v) * w for v, w in zip(values, weights))
    values, weights = np.array(values), np.array(weights, dtype=np.float64)
    if abs(want) > Fraction(sys.float_info.max):
        with pytest.raises(OverflowError):
            _exact_sum(values, weights)
    else:   # int / int rounds once, to nearest
        assert _exact_sum(values, weights).hex() == (want.numerator / want.denominator).hex()


def target_game(n, target, bad):
    """Utilities 0.25 * |S|, except ``bad`` on coalition ``target``."""
    return GameSpec(n=n, utility=lambda c: bad if c.mask == target else 0.25 * c.size)


@pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf, 10 ** 400])
@pytest.mark.parametrize("engine", ["exact", "loo", "mc", "mc-truncated"])
def test_a_utility_that_is_not_a_finite_real_fails_naming_its_coalition(engine, bad):
    n, seed, permutations = 4, 3, 10
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
    assert details["coalition"] == Coalition(target, n).to_hex()
    if engine.startswith("mc"):
        t, prefix = prefix_scan(n, permutations, seed)[target]
        assert (details["permutation_index"], details["prefix"]) == (t, prefix)


def test_infinite_utilities_of_both_signs_fail_on_the_first():
    game = GameSpec(n=3, utility=lambda c: math.inf if c.mask & 1 else -math.inf)
    with pytest.raises(UtilityOracleError) as err:
        shapley_montecarlo(game, 5, seed=1)
    assert err.value.details["coalition"] == Coalition(7, 3).to_hex()   # U(full) comes first


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
@pytest.mark.parametrize("utility", [
    # finite utilities whose marginals sum past the float range
    lambda c: 1.7e308 * (c.mask & 1),
    # marginals 1e200 apart, whose squared deviations overflow
    lambda c: 1e200 * (c.mask & 1) * (1 + (c.mask >> 1 & 1)),
    # a marginal that is itself past the float range
    lambda c: 1.7e308 if c.mask & 1 else -1.7e308 * (c.mask > 0),
])
def test_montecarlo_sums_past_the_float_range_fail_as_a_typed_error(utility, tol):
    game = GameSpec(n=3, utility=utility, u_empty=utility(Coalition(0, 3)))
    with pytest.raises(PromptShapError) as err:
        shapley_montecarlo(game, 8, truncation_tol=tol, seed=2)
    assert isinstance(err.value, PreconditionError)
    assert err.value.details == {"player": 0}


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
    oracle = CountingOracle(lambda c: float(c.size))
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


def test_truncated_montecarlo_asks_for_each_new_prefix_alone():
    n, seed, permutations = 4, 3, 10
    # a coalition of two or more is worth U(full), so every scan stops there
    table = {mask: float(mask.bit_count() >= 2) for mask in range(1 << n)}
    calls = []
    shapley_montecarlo(recording_game(n, table, calls), permutations, truncation_tol=0.1,
                       seed=seed)
    first = prefix_scan(n, permutations, seed, depth=2)
    assert calls == [[(1 << n) - 1, 0], *([m] for m in first if m != (1 << n) - 1)]


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


@pytest.mark.parametrize("yielded, failing", [(3, 3), (0, 0), (5, 3)])
def test_a_batch_of_the_wrong_length_fails_on_a_coalition(yielded, failing):
    # too few utilities fail on the first coalition without one, too many on the last
    game = GameSpec(n=2, utility=None, batch=lambda masks, n: [0.5] * yielded)
    with pytest.raises(UtilityOracleError, match=f"gave {yielded} utilities") as err:
        shapley_exact(game)
    assert err.value.details["coalition"] == Coalition(failing, 2).to_hex()


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
