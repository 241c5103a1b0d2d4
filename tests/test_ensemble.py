import csv
import io
import json
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from promptshap import ensemble
from promptshap.coalition import Coalition
from promptshap.ensemble import (
    Mode,
    PredictionMatrix,
    Rule,
    TieRule,
    ValidationSet,
    _TABLE_BYTES,
    _average_scorer,
    _average_sums,
    load_matrix,
    load_validation,
    matrix_utility,
)
from promptshap.errors import ConsistencyError, PreconditionError
from promptshap.game import run_batch
from promptshap.jsonio import all_numbers, read_csv

from conftest import make_adversarial_fixture, write_matrix, write_validation


def hard_matrix(rows, num_labels=None, instance_prefix="q"):
    arr = np.array(rows, dtype=np.int64)
    return PredictionMatrix(
        prompt_ids=tuple(f"p{i}" for i in range(arr.shape[0])),
        instance_ids=tuple(f"{instance_prefix}{j}" for j in range(arr.shape[1])),
        mode=Mode.HARD_LABEL,
        num_labels=num_labels if num_labels is not None else int(arr.max()) + 1,
        hard=arr,
    )


def prob_matrix(rows):
    arr = np.array(rows, dtype=np.float64)
    return PredictionMatrix(
        prompt_ids=tuple(f"p{i}" for i in range(arr.shape[0])),
        instance_ids=tuple(f"q{j}" for j in range(arr.shape[1])),
        mode=Mode.PROBABILISTIC,
        num_labels=arr.shape[2],
        prob=arr,
    )


def one_instance_utility(matrix, gold, coalition=None, rule=Rule.VOTE, tie=TieRule.ABSTAIN,
                         instance="q0"):
    """The oracle's utility on a validation set holding one instance."""
    if coalition is None:
        n = len(matrix.prompt_ids)
        coalition = Coalition((1 << n) - 1, n)
    validation = ValidationSet(instances=((instance, gold),), num_labels=matrix.num_labels)
    return matrix_utility(matrix, validation, rule, tie)(coalition)


def predicted(matrix, coalition=None, rule=Rule.VOTE, tie=TieRule.ABSTAIN):
    """The ensemble's label on instance q0: the one gold label the oracle scores
    as correct, or None when it scores every gold label wrong (an abstention)."""
    hits = [g for g in range(matrix.num_labels)
            if one_instance_utility(matrix, g, coalition, rule, tie) == 1.0]
    assert len(hits) <= 1
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant():
    # an instance is correct iff a prediction is present and equals the gold label
    m = hard_matrix([[2]], num_labels=3)
    assert one_instance_utility(m, 2) == 1.0
    assert one_instance_utility(m, 0) == 0.0
    tie = hard_matrix([[0], [1]])
    assert one_instance_utility(tie, 0) == one_instance_utility(tie, 1) == 0.0


# ---------------------------------------------------------------------------
# voting, one validation instance


def test_vote_strict_majority():
    m = hard_matrix([[0], [0], [1]])  # votes A, A, B
    assert predicted(m) == 0


def test_vote_tie_abstains_by_default():
    m = hard_matrix([[0], [1]])
    assert predicted(m) is None
    assert predicted(m, tie=TieRule.LOWEST) == 0


def test_vote_plurality():
    m = hard_matrix([[0], [1], [1], [1]])  # A, B, B, B
    assert predicted(m) == 1


def test_vote_unknown_instance():
    m = hard_matrix([[0], [1]])
    with pytest.raises(ConsistencyError):
        one_instance_utility(m, 0, instance="nope")


def test_vote_on_probabilistic_argmaxes_rows_first():
    # row ties argmax to the lowest label index
    m = prob_matrix([[[0.5, 0.5]], [[0.2, 0.8]], [[0.9, 0.1]]])
    assert m.hard_view().tolist() == [[0], [1], [0]]
    assert predicted(m) == 0


# ---------------------------------------------------------------------------
# averaging, one validation instance


def test_average_hand_example():
    # means (0.6, 0.4): label 0, where the two row votes tie and abstain
    m = prob_matrix([[[0.8, 0.2]], [[0.4, 0.6]]])
    assert predicted(m, rule=Rule.AVERAGE_ARGMAX) == 0
    assert predicted(m) is None
    # means (17/30, 13/30): label 0, where the row votes elect label 1
    m = prob_matrix([[[0.9, 0.1]], [[0.4, 0.6]], [[0.4, 0.6]]])
    assert predicted(m, rule=Rule.AVERAGE_ARGMAX) == 0
    assert predicted(m) == 1


def test_average_singleton_identity():
    m = prob_matrix([[[0.7, 0.3]], [[0.1, 0.9]]])
    assert predicted(m, Coalition(0b1, 2), Rule.AVERAGE_ARGMAX) == 0
    assert predicted(m, Coalition(0b10, 2), Rule.AVERAGE_ARGMAX) == 1


def test_average_of_identical_rows():
    m = prob_matrix([[[0.35, 0.65]]] * 4)
    assert predicted(m, rule=Rule.AVERAGE_ARGMAX) == 1


def test_average_requires_probabilistic():
    m = hard_matrix([[0], [1]])
    with pytest.raises(PreconditionError):
        one_instance_utility(m, 0, rule=Rule.AVERAGE_ARGMAX)
    # the empty coalition needs no matrix: it scores the declared u_empty
    assert one_instance_utility(m, 0, Coalition(0, 2), Rule.AVERAGE_ARGMAX) == 0.0


def test_single_classifier_perturbation_is_exact():
    # lowering row 0's label-0 probability by delta lowers the 4-row mean by
    # exactly delta/4, so exactly the instances whose mean lies in
    # [1/2, 1/2 + delta/4) flip from label 0 (gold) to label 1; dyadic entries
    # keep the float arithmetic exact
    delta = Fraction(1, 2)
    row0 = [Fraction(k, 8) for k in range(4, 9)]    # label-0 probability per instance
    others = [Fraction(1, 2)] * 3

    def matrix(first):
        rows = [first] + [[p] * len(first) for p in others]
        return prob_matrix([[[float(p), float(1 - p)] for p in row] for row in rows])

    validation = ValidationSet(
        instances=tuple((f"q{j}", 0) for j in range(len(row0))), num_labels=2
    )
    full = Coalition(0b1111, 4)
    before = matrix_utility(matrix(row0), validation, Rule.AVERAGE_ARGMAX)(full)
    after = matrix_utility(matrix([p - delta for p in row0]), validation,
                           Rule.AVERAGE_ARGMAX)(full)
    means = [(p + sum(others)) / 4 for p in row0]
    flips = sum(Fraction(1, 2) <= m < Fraction(1, 2) + delta / 4 for m in means)
    assert before == 1.0
    assert flips == 4
    assert after == (len(row0) - flips) / len(row0)


# ---------------------------------------------------------------------------
# utility


def test_always_correct_prompts_give_unit_utility():
    golds = (0, 1, 2)
    validation = ValidationSet(
        instances=tuple((f"q{i}", g) for i, g in enumerate(golds)), num_labels=3
    )
    m = hard_matrix([list(golds)] * 3, num_labels=3)
    oracle = matrix_utility(m, validation, Rule.VOTE)
    for mask in range(1, 8):
        assert oracle(Coalition(mask, 3)) == 1.0


def test_adversarial_fixture_utilities(adversarial_fixture):
    matrix, validation = adversarial_fixture
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    assert oracle(Coalition(0b111111, 6)) == 0.0  # 3-vs-3 tie abstains everywhere
    assert oracle(Coalition(0b111, 6)) == 1.0
    # with the lowest-label tie rule the full set is no longer 0
    lowest = matrix_utility(matrix, validation, Rule.VOTE, tie=TieRule.LOWEST)
    assert lowest(Coalition(0b111111, 6)) == 0.5


def test_empty_coalition_returns_declared_u_empty(adversarial_fixture):
    matrix, validation = adversarial_fixture
    empty = Coalition(0, 6)
    assert matrix_utility(matrix, validation, Rule.VOTE)(empty) == 0.0
    assert matrix_utility(matrix, validation, Rule.VOTE, u_empty=0.75)(empty) == 0.75


def test_coalition_size_must_match_matrix(adversarial_fixture):
    matrix, validation = adversarial_fixture
    with pytest.raises(ConsistencyError):
        matrix_utility(matrix, validation, Rule.VOTE)(Coalition(0b11111, 5))


def test_average_rule_utility():
    golds = (0, 1)
    validation = ValidationSet(
        instances=tuple((f"q{i}", g) for i, g in enumerate(golds)), num_labels=2
    )
    m = prob_matrix([
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.3, 0.7], [0.4, 0.6]],
    ])
    # averages: q0 -> (0.6, 0.4) argmax 0 == gold; q1 -> (0.3, 0.7) argmax 1 == gold
    oracle = matrix_utility(m, validation, Rule.AVERAGE_ARGMAX)
    assert oracle(Coalition(0b11, 2)) == 1.0
    # row 1 alone: q0 -> argmax 1 != 0, q1 -> argmax 1 == 1
    assert oracle(Coalition(0b10, 2)) == 0.5


def test_utility_values_are_multiples_of_one_over_v(adversarial_fixture):
    matrix, validation = adversarial_fixture
    v = len(validation.instances)
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    for mask in range(1 << 6):
        u = oracle(Coalition(mask, 6))
        assert abs(u * v - round(u * v)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_utility_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n, v, k = 4, 5, 3
    rows = rng.integers(0, k, size=(n, v))
    golds = rng.integers(0, k, size=v)
    validation = ValidationSet(
        instances=tuple((f"q{i}", int(g)) for i, g in enumerate(golds)), num_labels=k
    )
    m1 = hard_matrix(rows.tolist(), num_labels=k)
    perm = rng.permutation(n)
    m2 = hard_matrix(rows[perm].tolist(), num_labels=k)
    mask = int(rng.integers(0, 1 << n))
    if mask == 0:
        mask = 1
    members = [i for i in range(n) if mask >> i & 1]
    relabeled = sum(1 << int(np.where(perm == i)[0][0]) for i in members)
    u1 = matrix_utility(m1, validation, Rule.VOTE)(Coalition(mask, n))
    u2 = matrix_utility(m2, validation, Rule.VOTE)(Coalition(relabeled, n))
    assert u1 == u2


def test_matrix_utility_closure(adversarial_fixture):
    matrix, validation = adversarial_fixture
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    assert oracle(Coalition(0b1, 6)) == 1.0
    assert oracle(Coalition(0b111111, 6)) == 0.0


def test_oracle_input_errors_raise_on_call():
    m = hard_matrix([[0, 1], [1, 1]])
    unknown = ValidationSet(instances=(("q0", 0), ("nope", 1)), num_labels=2)
    oracle = matrix_utility(m, unknown, Rule.VOTE, u_empty=0.25)
    assert oracle(Coalition(0, 2)) == 0.25
    with pytest.raises(ConsistencyError, match="nope"):
        oracle(Coalition(0b11, 2))
    known = ValidationSet(instances=(("q0", 0),), num_labels=2)
    oracle = matrix_utility(m, known, Rule.AVERAGE_ARGMAX)
    with pytest.raises(ConsistencyError):
        oracle(Coalition(0b111, 3))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            oracle(Coalition(0b11, 2))


# ---------------------------------------------------------------------------
# the oracle against a plain-Python reference


def reference_utility(matrix, validation, mask, rule, tie, u_empty):
    """Plurality vote or probability-average argmax, per instance in plain Python.
    The average rule needs only ``prompt_ids``, ``instance_ids``, ``num_labels``
    and ``prob`` of ``matrix``, so it also scores entries a matrix refuses."""
    members = [i for i in range(len(matrix.prompt_ids)) if mask >> i & 1]
    if not members:
        return u_empty
    k = matrix.num_labels
    correct = 0
    for iid, gold in validation.instances:
        col = list(matrix.instance_ids).index(iid)
        if rule is Rule.VOTE:
            counts = [0] * k
            for i in members:
                if matrix.mode is Mode.HARD_LABEL:
                    counts[int(matrix.hard[i][col])] += 1
                else:
                    row = [float(x) for x in matrix.prob[i][col]]
                    counts[row.index(max(row))] += 1
            top = max(counts)
            winner = counts.index(top)
            if tie is TieRule.ABSTAIN and counts.count(top) > 1:
                winner = None
        else:
            sums = [0.0] * k
            for i in members:
                for label in range(k):
                    sums[label] += float(matrix.prob[i][col][label])
            means = [total / len(members) for total in sums]
            winner = means.index(max(means))
        correct += winner == gold
    return correct / len(validation.instances)


def random_game(rng, n, k, v, probabilistic):
    """n prompts and k labels over more instance columns than the v validation
    instances use, validation ids shuffled; probabilities are multiples of 1/8,
    so float sums are exact and first-place ties are common."""
    columns = v + int(rng.integers(1, 4))
    ids = tuple(f"q{j}" for j in range(columns))
    if probabilistic:
        prob = rng.multinomial(8, [1 / k] * k, size=(n, columns)) / 8
        matrix = PredictionMatrix(tuple(f"p{i}" for i in range(n)), ids,
                                  Mode.PROBABILISTIC, k, prob=prob)
    else:
        matrix = PredictionMatrix(tuple(f"p{i}" for i in range(n)), ids,
                                  Mode.HARD_LABEL, k, hard=rng.integers(0, k, size=(n, columns)))
    chosen = rng.permutation(columns)[:v]
    validation = ValidationSet(
        instances=tuple((ids[c], int(rng.integers(0, k))) for c in chosen), num_labels=k
    )
    return matrix, validation


def mask_orders(n, rng):
    full = 1 << n
    return {
        "ascending": list(range(full)),
        "gray": [m ^ (m >> 1) for m in range(full)],
        "descending": list(range(full))[::-1],
        "random": [int(m) for m in rng.integers(0, full, size=3 * full)],
    }


RULES = [
    (False, Rule.VOTE),
    (True, Rule.VOTE),
    (True, Rule.AVERAGE_ARGMAX),
]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(RULES),
    st.sampled_from(list(TieRule)),
)
def test_oracle_matches_reference_in_any_visit_order(seed, rule_case, tie):
    probabilistic, rule = rule_case
    rng = np.random.default_rng(seed)
    n, k, v = (int(x) for x in rng.integers(1, [7, 5, 8]))
    matrix, validation = random_game(rng, n, k, v, probabilistic)
    for name, masks in mask_orders(n, rng).items():
        oracle = matrix_utility(matrix, validation, rule, tie, u_empty=0.125)
        for mask in masks:
            expected = reference_utility(matrix, validation, mask, rule, tie, 0.125)
            assert oracle(Coalition(mask, n)) == expected, (name, mask)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
    st.sampled_from(list(TieRule)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vote_matches_plain_plurality_in_engine_orders(n, k, v, probabilistic, tie, seed):
    # per coalition and as one batch, in each order an engine asks in
    rng = np.random.default_rng(seed)
    matrix, validation = random_game(rng, n, k, v, probabilistic)
    full = 1 << n
    prefixes = []                       # Monte Carlo scans: each permutation's prefixes
    for _ in range(max(2, 48 // n)):
        mask = 0
        for p in rng.permutation(n):
            mask |= 1 << int(p)
            prefixes.append(mask)
    orders = {
        "ascending": range(full),
        "shuffled, repeats": [int(m) for m in rng.permutation(np.repeat(np.arange(full), 2))],
        "mc prefixes": prefixes,
    }
    expected = {}
    for name, masks in orders.items():
        oracle = matrix_utility(matrix, validation, Rule.VOTE, tie)
        for mask in masks:
            if mask not in expected:
                expected[mask] = reference_utility(matrix, validation, mask, Rule.VOTE, tie, 0.0)
            assert oracle(Coalition(mask, n)) == expected[mask], (name, mask)
        fresh = matrix_utility(matrix, validation, Rule.VOTE, tie)
        assert list(fresh.batch(masks, n)) == [expected[mask] for mask in masks], name


def test_lowest_tie_rule_fixture():
    # votes per instance (rows are prompts), then the gold label
    m = hard_matrix([[1, 1, 0, 2],
                     [1, 1, 1, 2],
                     [2, 2, 2, 2],
                     [2, 2, 1, 0],
                     [0, 0, 2, 0]], num_labels=3)
    golds = [1,   # ties the higher label 2: correct
             2,   # ties the lower label 1: wrong
             1,   # ties the higher label 2, beats the lower label 0: correct
             0]   # loses 2 to 3: wrong
    validation = ValidationSet(instances=tuple((f"q{j}", g) for j, g in enumerate(golds)),
                               num_labels=3)
    full = Coalition(0b11111, 5)
    assert matrix_utility(m, validation, Rule.VOTE, TieRule.LOWEST)(full) == 0.5
    assert matrix_utility(m, validation, Rule.VOTE, TieRule.ABSTAIN)(full) == 0.0
    for j, (gold, expected) in enumerate(zip(golds, [1.0, 0.0, 1.0, 0.0])):
        single = hard_matrix([[row[j]] for row in m.hard.tolist()], num_labels=3)
        assert one_instance_utility(single, gold, tie=TieRule.LOWEST) == expected


@pytest.mark.parametrize("tie", list(TieRule))
@pytest.mark.parametrize("n", [126, 127, 128, 129])
def test_vote_fields_stay_exact_across_the_width_boundary(n, tie):
    # 127 prompts still fit 8-bit margin fields, 128 need 9 bits; the unanimous
    # matrix drives every field to its extreme on the full coalition: gold
    # gets all n votes, or one rival does, below or above gold
    rng = np.random.default_rng(n)
    random_matrix, random_validation = random_game(rng, n, 3, 12, probabilistic=False)
    unanimous = hard_matrix([[0, 1, 2, 0, 1, 2]] * n, num_labels=3)
    unanimous_validation = ValidationSet(
        instances=tuple((f"q{j}", g) for j, g in enumerate([0, 1, 2, 1, 2, 0])), num_labels=3)
    full = (1 << n) - 1
    prefixes = []
    for _ in range(2):
        mask = 0
        for p in rng.permutation(n):
            mask |= 1 << int(p)
            prefixes.append(mask)
    orders = {
        "ascending": [*range(64), *range(full - 63, full + 1)],
        "random": [int.from_bytes(rng.bytes(17), "little") & full for _ in range(64)],
        "mc prefixes": prefixes,
    }
    for matrix, validation in [(random_matrix, random_validation),
                               (unanimous, unanimous_validation)]:
        for name, masks in orders.items():
            oracle = matrix_utility(matrix, validation, Rule.VOTE, tie)
            for mask in masks:
                expected = reference_utility(matrix, validation, mask, Rule.VOTE, tie, 0.0)
                assert oracle(Coalition(mask, n)) == expected, (name, mask)
    # no ties when all n agree: exactly the three columns voting gold are right
    assert matrix_utility(unanimous, unanimous_validation, Rule.VOTE, tie)(
        Coalition(full, n)) == 0.5


def test_shared_oracle_is_thread_safe():
    n = 8
    matrix, validation = random_game(np.random.default_rng(11), n, 3, 40, probabilistic=False)
    expected = [reference_utility(matrix, validation, m, Rule.VOTE, TieRule.ABSTAIN, 0.0)
                for m in range(1 << n)]
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    mismatches = []
    done = []

    def worker(worker_seed):
        masks = np.random.default_rng(worker_seed).integers(0, 1 << n, size=2000)
        for mask in masks:
            got = oracle(Coalition(int(mask), n))
            if got != expected[mask]:
                mismatches.append((int(mask), got))
        done.append(worker_seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3]
    assert mismatches == []


# ---------------------------------------------------------------------------
# batch scoring from subset-sum tables


@pytest.mark.parametrize("tie", list(TieRule))
@pytest.mark.parametrize("n", [*range(1, 17), 126, 127, 128, 129])
def test_vote_tables_match_the_reference_across_blocks(n, tie):
    # players split into blocks of at most 8, so 8/9 and 16 sit on block
    # boundaries; margin fields widen at 2, 4, 8, 16 and 128 prompts
    rng = np.random.default_rng(7000 + n)
    matrix, validation = random_game(rng, n, 3, 12, probabilistic=n % 2 == 1)
    full = (1 << n) - 1
    masks = list(range(1 << n)) if n <= 8 else [
        *range(64), *range(full - 63, full + 1),
        *(int.from_bytes(rng.bytes(17), "little") & full for _ in range(64))]
    mask = 0
    for p in rng.permutation(n):        # one Monte Carlo scan's prefixes
        mask |= 1 << int(p)
        masks.append(mask)
    oracle = matrix_utility(matrix, validation, Rule.VOTE, tie, u_empty=0.125)
    expected = [reference_utility(matrix, validation, m, Rule.VOTE, tie, 0.125) for m in masks]
    assert list(oracle.batch(masks, n)) == expected


def _rows(mask, n):
    return [i for i in range(n) if mask >> i & 1]


PROBABILITY = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4), st.data())
def test_average_fold_is_numpys_sum_and_mean_bit_for_bit(n, v, k, data):
    # With one instance and one label numpy sums the reduced axis pairwise,
    # not as a fold; there every coalition scores 1, the only label being gold.
    assume(v * k > 1)
    prob = data.draw(arrays(np.float64, (n, v, k), elements=PROBABILITY))
    lo = data.draw(st.integers(min_value=0, max_value=n), label="lo")
    drawn = data.draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=30))
    masks = [*(1 << i for i in range(n)), *drawn]       # every one-member coalition
    seen = set()
    for positions, sums in _average_sums(prob, lo)(masks):
        for i, total in zip(positions, sums):
            rows = prob[_rows(masks[i], n)]
            assert total.tobytes() == rows.sum(axis=0).tobytes(), (masks[i], lo)
            mean = total / masks[i].bit_count()
            assert mean.tobytes() == rows.mean(axis=0).tobytes(), (masks[i], lo)
            seen.add(i)
    assert seen == set(range(len(masks)))


# multiples of 1/8, so sums tie often, and entries whose sums overflow to +inf or -inf
AVERAGE_ENTRY = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | \
    st.sampled_from([1e308, -1e308, 1.5e308, -1.5e308])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1),
       st.data())
# sums past the float range warn: a matrix refuses such entries, the scorer does not check
@np.errstate(over="ignore")
def test_average_rule_matches_the_reference_across_buffers_and_orders(n, k, v, seed, data):
    prob = data.draw(arrays(np.float64, (n, v, k), elements=AVERAGE_ENTRY), label="prob")
    golds = data.draw(arrays(np.int64, v, elements=st.integers(0, k - 1)), label="golds")
    # the real buffer, and buffers of one and of three coalitions
    table_bytes = data.draw(st.sampled_from([_TABLE_BYTES, k * v * 8, 3 * k * v * 8 + 7]))
    ids = tuple(f"q{j}" for j in range(v))
    matrix = SimpleNamespace(prompt_ids=tuple(f"p{i}" for i in range(n)), instance_ids=ids,
                             num_labels=k, prob=prob)
    validation = ValidationSet(tuple(zip(ids, golds.tolist())), k)
    expected = {mask: reference_utility(matrix, validation, mask, Rule.AVERAGE_ARGMAX,
                                        TieRule.ABSTAIN, 0.0) for mask in range(1, 1 << n)}
    with mock.patch.object(ensemble, "_TABLE_BYTES", table_bytes):
        score = _average_scorer(prob, golds)
    rng = np.random.default_rng(seed)
    prefixes = []                       # Monte Carlo scans: each permutation's prefixes
    for _ in range(max(2, 48 // n)):
        mask = 0
        for p in rng.permutation(n):
            mask |= 1 << int(p)
            prefixes.append(mask)
    orders = {
        "ascending": list(range(1, 1 << n)),
        "random, repeats": [int(m) for m in rng.integers(1, 1 << n, size=2 << n)],
        "mc prefixes": prefixes,
    }
    for name, masks in orders.items():
        assert [hits / v for hits in score(masks)] == [expected[m] for m in masks], name
    for mask in orders["random, repeats"][:16]:
        assert [hits / v for hits in score([mask])] == [expected[mask]], mask


@pytest.mark.parametrize("rule, instances, k", [
    pytest.param(Rule.AVERAGE_ARGMAX, 100, 4, id="average-100"),
    pytest.param(Rule.VOTE, 400, 4, id="vote-400"),
    # the average rule's low table plus its buffer of means
    (Rule.AVERAGE_ARGMAX, 400, 4),
    (Rule.AVERAGE_ARGMAX, 400, 2),
])
def test_scoring_every_coalition_stays_small(rule, instances, k):
    # a 2**12 x 100 x 4 float table would take 13 MB
    n = 12
    rng = np.random.default_rng(5)
    ids = tuple(f"q{j}" for j in range(instances))
    prob = rng.dirichlet(np.ones(k), size=(n, instances))
    matrix = PredictionMatrix(tuple(f"p{i}" for i in range(n)), ids, Mode.PROBABILISTIC, k,
                              prob=prob)
    validation = ValidationSet(tuple((iid, int(g)) for iid, g in
                                     zip(ids, rng.integers(0, k, size=instances))), k)
    oracle = matrix_utility(matrix, validation, rule)
    tracemalloc.start()
    try:
        utilities = list(oracle.batch(range(1 << n), n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(utilities) == 1 << n
    assert peak < 2 * 2**20, peak


def test_batch_fails_on_the_first_coalition_that_needs_the_inputs():
    m = hard_matrix([[0, 1], [1, 1]])
    unknown = ValidationSet(instances=(("q0", 0), ("nope", 1)), num_labels=2)
    oracle = matrix_utility(m, unknown, Rule.VOTE, u_empty=0.25)
    values, error = run_batch(oracle.batch, [0, 0, 3, 1], 2)
    assert values == [0.25, 0.25]
    assert isinstance(error, ConsistencyError) and "nope" in str(error)
    values, error = run_batch(oracle.batch, [0, 1], 3)    # the wrong player count
    assert values == [] and isinstance(error, ConsistencyError)


# ---------------------------------------------------------------------------
# matrix/validation construction and files


def test_matrix_validation_rules():
    with pytest.raises(ConsistencyError):
        hard_matrix([[3]], num_labels=2)  # label out of range
    with pytest.raises(ConsistencyError):
        PredictionMatrix(
            prompt_ids=("a", "a"),
            instance_ids=("q0",),
            mode=Mode.HARD_LABEL,
            num_labels=2,
            hard=np.zeros((2, 1), dtype=np.int64),
        )
    with pytest.raises(ConsistencyError):
        prob_matrix([[[0.5, 0.2]]])  # rows must sum to 1
    with pytest.raises(ConsistencyError, match="exactly the hard field"):
        PredictionMatrix(
            prompt_ids=("a",),
            instance_ids=("q0",),
            mode=Mode.HARD_LABEL,
            num_labels=2,
            hard=np.zeros((1, 1), dtype=np.int64),
            prob=np.ones((1, 1, 2)) / 2,
        )
    with pytest.raises(ConsistencyError, match="instance ids are not unique"):
        PredictionMatrix(prompt_ids=("a",), instance_ids=("q0", "q0"), mode=Mode.HARD_LABEL,
                         num_labels=2, hard=np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ConsistencyError, match=re.escape("matrix shape (1, 2) != (1, 1)")):
        PredictionMatrix(prompt_ids=("a",), instance_ids=("q0",), mode=Mode.HARD_LABEL,
                         num_labels=2, hard=np.zeros((1, 2), dtype=np.int64))
    for fields in ({}, {"hard": np.zeros((1, 1), dtype=np.int64), "prob": np.ones((1, 1, 2)) / 2}):
        with pytest.raises(ConsistencyError, match="exactly the prob field"):
            PredictionMatrix(prompt_ids=("a",), instance_ids=("q0",), mode=Mode.PROBABILISTIC,
                             num_labels=2, **fields)
    with pytest.raises(ConsistencyError, match=re.escape("matrix shape (1, 1, 3) != (1, 1, 2)")):
        PredictionMatrix(prompt_ids=("a",), instance_ids=("q0",), mode=Mode.PROBABILISTIC,
                         num_labels=2, prob=np.ones((1, 1, 3)) / 3)


def test_nan_probability_rejected(tmp_path):
    # NaN passes both the sign and the row-sum check, and the average rule
    # would take it for the row maximum
    with pytest.raises(ConsistencyError, match="finite"):
        prob_matrix([[[float("nan"), 1.0]]])
    path = tmp_path / "nan.csv"
    path.write_text('prompt_id,q0,q1\np0,"[NaN, 1.0]","[0.5, 0.5]"\n')
    with pytest.raises(ConsistencyError, match="finite"):
        load_matrix(path, num_labels=2)


@pytest.mark.parametrize("cell, fault", [
    pytest.param('"[NaN, 1.0]"', "finite", id="nan-cell"),
    pytest.param('"[-0.5, 1.5]"', "nonnegative", id="negative-probability"),
    pytest.param('"[0.5, 0.6]"', "sum to 1", id="bad-row-sum"),
    pytest.param("5", "outside", id="label-out-of-range"),
    pytest.param("1,0", "'p0' has 2 cells, expected 1", id="row-too-long"),
    pytest.param('"[0.25, 0.25, 0.5]"', re.escape("have [3] labels, expected 2"),
                 id="vector-length"),
])
def test_matrix_content_error_names_the_file(cell, fault, tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(f"prompt_id,q0\np0,{cell}\n")
    with pytest.raises(ConsistencyError, match=fault) as info:
        load_matrix(path, num_labels=2)
    assert str(info.value).startswith(f"{path}: ")


def test_matrix_is_read_only():
    m = hard_matrix([[0, 1]])
    with pytest.raises(ValueError):
        m.hard[0, 0] = 1


def test_validation_set_rules():
    with pytest.raises(PreconditionError):
        ValidationSet(instances=(), num_labels=2)
    with pytest.raises(ConsistencyError):
        ValidationSet(instances=(("a", 0), ("a", 1)), num_labels=2)
    with pytest.raises(ConsistencyError):
        ValidationSet(instances=(("a", 5),), num_labels=2)
    with pytest.raises(PreconditionError, match="num_labels must be >= 1, got 0"):
        ValidationSet(instances=(("a", 0),), num_labels=0)


def test_validation_file_round_trip(tmp_path):
    matrix, validation = make_adversarial_fixture()
    path = tmp_path / "validation.csv"
    write_validation(validation, path)
    loaded = load_validation(path)
    assert loaded == validation


@pytest.mark.parametrize("rows, error, fault", [
    pytest.param("q0,0\nq0,1\n", ConsistencyError, "not unique", id="repeated-id"),
    pytest.param("q0,0\nq1,5\n", ConsistencyError, "gold label 5 outside", id="gold-out-of-range"),
    pytest.param("", PreconditionError, "empty", id="no-instances"),
    pytest.param("q0,0,1\n", ConsistencyError, "malformed row", id="malformed-row"),
])
def test_validation_content_error_names_the_file(rows, error, fault, tmp_path):
    path = tmp_path / "validation.csv"
    path.write_text("#num_labels=2\ninstance_id,gold_label\n" + rows)
    with pytest.raises(error, match=fault) as info:
        load_validation(path)
    assert str(info.value).startswith(f"{path}: ")


def test_validation_file_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("instance_id,gold_label\nq0,0\n")
    with pytest.raises(ConsistencyError):
        load_validation(path)
    path.write_text("#num_labels=2\nwrong,header\nq0,0\n")
    with pytest.raises(ConsistencyError):
        load_validation(path)


def test_hard_matrix_file_round_trip(tmp_path):
    matrix, _ = make_adversarial_fixture()
    path = tmp_path / "matrix.csv"
    write_matrix(matrix, path)
    loaded = load_matrix(path, num_labels=2)
    assert loaded.prompt_ids == matrix.prompt_ids
    assert loaded.instance_ids == matrix.instance_ids
    assert loaded.mode is Mode.HARD_LABEL
    assert np.array_equal(loaded.hard, matrix.hard)


def test_prob_matrix_file_round_trip(tmp_path):
    m = prob_matrix([
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.3, 0.7], [0.4, 0.6]],
    ])
    path = tmp_path / "matrix.csv"
    write_matrix(m, path)
    loaded = load_matrix(path, num_labels=2)
    assert loaded.mode is Mode.PROBABILISTIC
    assert np.allclose(loaded.prob, m.prob)


def test_a_well_formed_prob_matrix_loads_in_one_pass(tmp_path, monkeypatch):
    # the cell-by-cell parse serves only files the joined parse refuses
    path = tmp_path / "matrix.csv"
    write_matrix(prob_matrix([[[0.9, 0.1], [0.2, 0.8]], [[0.3, 0.7], [0.4, 0.6]]]), path)
    want = load_matrix(path, num_labels=2)

    def cell_by_cell(cells, num_labels):
        raise AssertionError("a well-formed file took the cell-by-cell parse")

    monkeypatch.setattr(ensemble, "_prob_cells", cell_by_cell)
    loaded = load_matrix(path, num_labels=2)
    assert loaded.prob.tobytes() == want.prob.tobytes()


def test_mixed_matrix_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text('prompt_id,q0,q1\np0,1,"[0.5, 0.5]"\n')
    with pytest.raises(ConsistencyError):
        load_matrix(path, num_labels=2)


def test_matrix_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,q0\np0,1\n")
    with pytest.raises(ConsistencyError):
        load_matrix(path, num_labels=2)
    path.write_text("prompt_id,q0\n\n")
    with pytest.raises(ConsistencyError, match="matrix has no prompt rows"):
        load_matrix(path, num_labels=2)


# ---------------------------------------------------------------------------
# the loader against the cell-by-cell parse it replaced, kept verbatim as the
# reference: every file gives the same matrix bits or the same refusal


def _matrix_from_rows(reader, num_labels: int) -> PredictionMatrix:
    header = next(reader, None)
    if not header or header[0].strip() != "prompt_id" or len(header) < 2:
        raise ValueError("expected header 'prompt_id,<instance ids>'")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"prompt {row[0]!r} has {len(row) - 1} cells, expected {len(header) - 1}")
    if not rows:
        raise ValueError("matrix has no prompt rows")
    cells = [[c.strip() for c in row[1:]] for row in rows]
    probabilistic = cells[0][0].startswith("[")
    if any(c.startswith("[") != probabilistic for row in cells for c in row):
        raise ValueError("mixed hard-label and probability cells")
    if probabilistic:
        vectors = [[_parse_prob_cell(c) for c in row] for row in cells]
        lengths = {len(v) for row in vectors for v in row}
        if lengths != {num_labels}:
            raise ValueError(
                f"probability vectors have {sorted(lengths)} labels, expected {num_labels}")
        content = {"mode": Mode.PROBABILISTIC, "prob": np.array(vectors, dtype=np.float64)}
    else:
        content = {"mode": Mode.HARD_LABEL,
                   "hard": np.array([[int(c) for c in row] for row in cells], dtype=np.int64)}
    return PredictionMatrix(prompt_ids=tuple(row[0] for row in rows),
                            instance_ids=tuple(h.strip() for h in header[1:]),
                            num_labels=num_labels, **content)


def _parse_prob_cell(cell: str) -> list[float]:
    vec = json.loads(cell)
    if not isinstance(vec, list) or not all_numbers(vec):
        raise ValueError(f"probability cell {cell!r} is not a number array")
    return [float(x) for x in vec]


def loaded_or_refused(load, path, num_labels):
    """What ``load`` makes of the file: the matrix's fields with its array's
    dtype and bits, or the message it is refused with."""
    try:
        matrix = load(path, num_labels)
    except ConsistencyError as exc:
        return "refused", str(exc)
    data = matrix.prob if matrix.mode is Mode.PROBABILISTIC else matrix.hard
    return ("loaded", matrix.prompt_ids, matrix.instance_ids, matrix.mode, matrix.num_labels,
            data.dtype, data.shape, data.tobytes())


def reference_load_matrix(path, num_labels):
    return read_csv(path, lambda reader: _matrix_from_rows(reader, num_labels))


# probability vectors that pass the matrix checks, by label count
SUMMING_TO_ONE = {
    1: [[1.0], [1]],
    2: [[0.5, 0.5], [0.9, 0.1], [1, 0], [0, 1.0], [0.25, 0.75], [-0.0, 1]],
    3: [[0.2, 0.3, 0.5], [1, 0, 0], [0.1, 0.1, 0.8], [0.0, 0.5, 0.5]],
}
# spellings of a number that are not the vector's own
ODD_NUMBERS = ["NaN", "Infinity", "-Infinity", "true", "false", "null", '"0.5"', "[0.5]",
               "1e400", "1" + "0" * 400, "-1", "2", "0.5e0", "05", "+0.5", ".5"]
# whole cells that do not hold a vector of the label count
ODD_PROB_CELLS = ["[0.5, 0.5,]", "[]", "[0.5", "[0.5, 0.5]]", "[[0.5, 0.5]]", "[0.5, 0.5, 0.0, 0.0]",
                  "[1]", "[0.5, 0.5] [0.5]", "[0.5, 0.5], [0.5, 0.5]", "1", "", "{}", "null",
                  "[0.5,\n0.5]", "[ 0.5 ,\t0.5 ]", "[0.5;0.5]", "['0.5', 0.5]"]
# pairs of neighbouring cells that split arrays between them
SPLITS = [("[0.5, 0.5], [0.5", "0.5]"), ("[0.5, [0.5", "[0.5]]"), ("[0.5", "[0.5, 0.5]]"),
          ("[1, 0], [0", "1]"), ("[0.5, 0.5]]", "[[0.5, 0.5]")]
ODD_HARD_CELLS = ["-1", "1.5", "abc", "", "+1", "01", "1_0", " 1", "9" * 30, "1e2", "[1]",
                  "[0.5, 0.5]", "true", "٣"]


@st.composite
def number_text(draw, x):
    spellings = [json.dumps(x), f"{float(x):e}", f"{float(x):.3E}", f"{float(x)!r}"]
    if float(x).is_integer():
        spellings.append(str(int(x)))
    if draw(st.integers(0, 14)) == 0:
        spellings = ODD_NUMBERS
    return draw(st.sampled_from(spellings))


@st.composite
def prob_cell(draw, labels):
    kind = draw(st.integers(0, 9))
    if kind == 9:
        return draw(st.sampled_from(ODD_PROB_CELLS))
    if kind == 8:   # a vector of another length
        vector = draw(st.sampled_from(SUMMING_TO_ONE[draw(st.sampled_from(
            [k for k in SUMMING_TO_ONE if k != labels]))]))
    else:
        vector = draw(st.sampled_from(SUMMING_TO_ONE[labels]))
    comma = draw(st.sampled_from([",", ", ", " , ", ",\t"]))
    left, right = draw(st.sampled_from([("[", "]"), ("[ ", " ]"), (" [", "] ")]))
    return left + comma.join(draw(number_text(x)) for x in vector) + right


@st.composite
def hard_cell(draw, labels):
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(ODD_HARD_CELLS))
    return draw(st.sampled_from(["{}", " {} ", "{}\t"])).format(draw(st.integers(0, labels - 1)))


@st.composite
def matrix_texts(draw):
    """(csv text, num_labels): 1-4 prompts, 1-5 instances, 1-3 labels."""
    prompts, instances, labels = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    probabilistic = draw(st.booleans())
    cell = prob_cell(labels) if probabilistic else hard_cell(labels)
    cells = [draw(cell) for _ in range(prompts * instances)]
    if draw(st.integers(0, 7)) == 0:   # a cell of the other kind
        other = hard_cell(labels) if probabilistic else prob_cell(labels)
        cells[draw(st.integers(0, len(cells) - 1))] = draw(other)
    if probabilistic and len(cells) > 1 and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(cells) - 2))   # row-major, so a pair may span two rows
        cells[at:at + 2] = draw(st.sampled_from(SPLITS))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["prompt_id", *(f"q{j}" for j in range(instances))])
    for i in range(prompts):
        writer.writerow([f"p{i}", *cells[i * instances:(i + 1) * instances]])
    return text.getvalue(), labels


@settings(max_examples=400, deadline=None)
@given(matrix_texts())
def test_load_matrix_matches_the_cell_by_cell_parse(tmp_path_factory, case):
    text, labels = case
    path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    want = loaded_or_refused(reference_load_matrix, path, labels)
    assert loaded_or_refused(load_matrix, path, labels) == want


def test_a_probability_array_split_across_cells_is_refused_as_mixed(tmp_path):
    # the cells join into [[0.5, 0.5], [0.5, 0.5]], two vectors for two cells,
    # but the second cell is not an array of its own
    path = tmp_path / "split.csv"
    path.write_text('prompt_id,q0,q1\np0,"[0.5, 0.5], [0.5","0.5]"\n')
    with pytest.raises(ConsistencyError, match="mixed hard-label and probability cells"):
        load_matrix(path, num_labels=2)
    assert loaded_or_refused(load_matrix, path, 2) == loaded_or_refused(
        reference_load_matrix, path, 2)
