import math
from fractions import Fraction

import numpy as np
import pytest

from promptshap.coalition import Coalition
from promptshap.ensemble import Rule, matrix_utility
from promptshap.errors import PreconditionError
from promptshap.game import GameSpec, shapley_exact
from promptshap.selection import (
    BestPrefix,
    Curve,
    CurvePoint,
    best_prefix,
    curve_to_csv,
    curve_to_json_dict,
    rank_add_curve,
    rank_order,
)

from conftest import hex_key, shapley_subset_rational


def test_rank_order_sorts_by_value_then_id():
    order = rank_order([0.1, 0.5, 0.5, -0.2], ["d", "b", "a", "c"])
    assert order == [2, 1, 0, 3]   # 0.5 tie broken a before b


def test_rank_order_identical_values_fall_back_to_ids():
    order = rank_order([0.0, 0.0, 0.0], ["z", "m", "a"])
    assert order == [2, 1, 0]


def test_rank_order_length_mismatch():
    with pytest.raises(PreconditionError):
        rank_order([1.0], ["a", "b"])


def test_glove_curve(glove_game):
    result = shapley_exact(glove_game)
    curve = rank_add_curve(result, ["g0", "g1", "g2"], glove_game.batch)
    assert [p.added_prompt_id for p in curve.points] == ["g0", "g1", "g2"]
    assert [p.utility for p in curve.points] == [0.0, 1.0, 1.0]
    best = best_prefix(curve)
    assert best == BestPrefix(k=2, utility=1.0, prompt_ids=("g0", "g1"))
    assert curve.points[-1].utility == glove_game.utility(Coalition(0b111, 3))


def test_adversarial_fixture_ranking_and_curve(adversarial_fixture):
    matrix, validation = adversarial_fixture
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    game = GameSpec(n=6, utility=oracle)
    rational = shapley_subset_rational(6, oracle)
    assert rational[:3] == [Fraction(11, 30)] * 3
    assert rational[3:] == [Fraction(-11, 30)] * 3
    result = shapley_exact(game)
    assert all(result.values[i] > result.values[j] for i in range(3) for j in range(3, 6))

    curve = rank_add_curve(result, list(matrix.prompt_ids), game.batch)
    assert [p.added_prompt_id for p in curve.points] == ["c0", "c1", "c2", "x0", "x1", "x2"]
    assert [p.utility for p in curve.points] == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    best = best_prefix(curve)
    assert best.k == 1
    assert best.utility == 1.0
    assert best.prompt_ids == ("c0",)
    assert curve.points[-1].utility == oracle(Coalition(0b111111, 6))


def test_single_player_curve():
    game = GameSpec(n=1, utility=lambda s: float(s.mask.bit_count()))
    curve = rank_add_curve([0.5], ["only"], game.batch)
    assert curve.points == (CurvePoint(k=1, added_prompt_id="only", utility=1.0),)
    assert best_prefix(curve) == BestPrefix(k=1, utility=1.0, prompt_ids=("only",))


def test_curve_accepts_plain_value_sequence(glove_game):
    curve = rank_add_curve([0.9, 0.05, 0.05], ["a", "b", "c"], glove_game.batch)
    assert [p.added_prompt_id for p in curve.points] == ["a", "b", "c"]


def test_empty_values_rejected(glove_game):
    with pytest.raises(PreconditionError):
        rank_add_curve([], [], glove_game.batch)


def test_oracle_failure_yields_partial_curve():
    calls = []

    def oracle(coalition):
        calls.append(coalition.mask)
        if coalition.mask.bit_count() == 2:
            raise RuntimeError("backend down")
        return float(coalition.mask.bit_count())

    curve = rank_add_curve([0.3, 0.2, 0.1], ["a", "b", "c"], GameSpec(n=3, utility=oracle).batch)
    assert curve.failed_k == 2
    assert curve.error == "backend down"
    assert len(curve.points) == 2
    assert curve.points[0].utility == 1.0
    assert curve.points[1].utility is None
    assert curve.points[1].added_prompt_id == "b"
    assert len(calls) == 2   # evaluation stops at the failure
    best = best_prefix(curve)
    assert best == BestPrefix(k=1, utility=1.0, prompt_ids=("a",))


def test_curve_asks_for_its_prefixes_in_one_batch():
    calls = []

    def batch(masks, n):
        calls.append((list(masks), n))
        return [mask.bit_count() / 4 for mask in masks]

    curve = rank_add_curve([0.1, 0.4, 0.3, 0.2], list("abcd"), batch)
    assert calls == [([0b0010, 0b0110, 0b1110, 0b1111], 4)]
    assert [(p.k, p.added_prompt_id, p.utility) for p in curve.points] == [
        (1, "b", 0.25), (2, "c", 0.5), (3, "d", 0.75), (4, "a", 1.0)]


def test_a_utility_that_is_no_number_fails_its_point():
    game = GameSpec(n=3, utility=lambda c: "oops" if c.mask.bit_count() == 2 else 0.5)
    curve = rank_add_curve([0.3, 0.2, 0.1], list("abc"), game.batch)
    assert (curve.failed_k, [p.utility for p in curve.points]) == (2, [0.5, None])
    assert "oops" in curve.error


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.5"],
                         ids=["nan", "inf", "-inf", "bool", "numeric-string"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_utility_that_is_not_a_finite_real_fails_its_point(bad, k):
    # the engines refuse the same values (see test_game), so a curve never ranks them
    def batch(masks, n):
        return [bad if i == k - 1 else 0.25 * i for i in range(len(masks))]

    curve = rank_add_curve([0.3, 0.2, 0.1], list("abc"), batch)
    assert curve.failed_k == k
    assert [p.utility for p in curve.points] == [0.25 * i for i in range(k - 1)] + [None]
    assert curve.error == (f"utility oracle gave {bad!r} on coalition "
                           f"{hex_key((1 << k) - 1, 3)}, not a finite real number")
    if k > 1:
        assert best_prefix(curve).k == k - 1


def test_curve_utilities_are_floats():
    # an integer utility, as a cache file may hold, is written as a float
    curve = rank_add_curve([0.2, 0.1], list("ab"), lambda masks, n: [0, 1])
    assert [type(p.utility) for p in curve.points] == [float, float]
    assert curve_to_csv(curve) == "k,added_prompt_id,utility\n1,a,0.0\n2,b,1.0\n"


def test_best_prefix_needs_an_evaluated_point():
    curve = Curve(points=(CurvePoint(k=1, added_prompt_id="a", utility=None),),
                  error="x", failed_k=1)
    with pytest.raises(PreconditionError):
        best_prefix(curve)


def test_best_prefix_smallest_k_on_ties():
    points = (
        CurvePoint(k=1, added_prompt_id="a", utility=0.5),
        CurvePoint(k=2, added_prompt_id="b", utility=0.5),
        CurvePoint(k=3, added_prompt_id="c", utility=0.25),
    )
    best = best_prefix(Curve(points=points))
    assert best.k == 1


def test_curve_to_csv_exact_text():
    points = (
        CurvePoint(k=1, added_prompt_id="a", utility=1.0),
        CurvePoint(k=2, added_prompt_id="b", utility=None),
    )
    csv_text = curve_to_csv(Curve(points=points, error="boom", failed_k=2))
    assert csv_text == "k,added_prompt_id,utility\n1,a,1.0\n2,b,\n"


def test_curve_to_json_dict_shapes():
    points = (CurvePoint(k=1, added_prompt_id="a", utility=0.75),)
    curve = Curve(points=points)
    doc = curve_to_json_dict(curve)
    assert doc == {"points": [{"k": 1, "added_prompt_id": "a", "utility": 0.75}]}
    best = best_prefix(curve)
    doc = curve_to_json_dict(curve, best)
    assert doc["best_prefix"] == {"k": 1, "utility": 0.75, "prompt_ids": ["a"]}
    failed = Curve(points=points, error="boom", failed_k=1)
    doc = curve_to_json_dict(failed)
    assert doc["error"] == "boom"
    assert doc["failed_k"] == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.5", 10 ** 400],
                         ids=["nan", "inf", "-inf", "bool", "numeric-string", "huge-int"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_rank_value_that_is_not_a_finite_real_is_refused(bad, at):
    # a NaN used to rank by where it sat, so the best prefix was arbitrary
    values = [0.1, 0.2, 0.3]
    values[at] = bad
    calls = []
    for rank in (lambda: rank_order(values, list("abc")),
                 lambda: rank_add_curve(values, list("abc"),
                                        lambda masks, n: calls.append(masks) or [])):
        with pytest.raises(PreconditionError) as err:
            rank()
        assert err.value.details == {"prompt_id": "abc"[at]}
        assert repr(bad) in str(err.value)
    assert not calls


def test_rank_values_of_any_real_type_are_accepted():
    values = [1, np.float64(0.5), Fraction(1, 4), np.float32(2.0), np.uint8(3)]
    curve = rank_add_curve(values, list("abcde"), lambda masks, n: [0.5] * len(masks))
    assert [p.added_prompt_id for p in curve.points] == list("edabc")
