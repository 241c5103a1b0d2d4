import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap.coalition import Coalition
from promptshap.ensemble import (
    Mode,
    PredictionMatrix,
    Rule,
    TieRule,
    ValidationSet,
    load_matrix,
    load_validation,
    matrix_utility,
    write_matrix,
    write_validation,
)
from promptshap.errors import ConsistencyError, PreconditionError

from conftest import make_adversarial_fixture


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
        coalition = Coalition.full(len(matrix.prompt_ids))
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
    assert predicted(m, Coalition.from_indices([0], 2), Rule.AVERAGE_ARGMAX) == 0
    assert predicted(m, Coalition.from_indices([1], 2), Rule.AVERAGE_ARGMAX) == 1


def test_average_of_identical_rows():
    m = prob_matrix([[[0.35, 0.65]]] * 4)
    assert predicted(m, rule=Rule.AVERAGE_ARGMAX) == 1


def test_average_requires_probabilistic():
    m = hard_matrix([[0], [1]])
    with pytest.raises(PreconditionError):
        one_instance_utility(m, 0, rule=Rule.AVERAGE_ARGMAX)
    # the empty coalition needs no matrix: it scores the declared u_empty
    assert one_instance_utility(m, 0, Coalition.empty(2), Rule.AVERAGE_ARGMAX) == 0.0


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
    full = Coalition.full(4)
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
    assert oracle(Coalition.full(6)) == 0.0  # 3-vs-3 tie abstains everywhere
    assert oracle(Coalition.from_indices([0, 1, 2], 6)) == 1.0
    # with the lowest-label tie rule the full set is no longer 0
    lowest = matrix_utility(matrix, validation, Rule.VOTE, tie=TieRule.LOWEST)
    assert lowest(Coalition.full(6)) == 0.5


def test_empty_coalition_returns_declared_u_empty(adversarial_fixture):
    matrix, validation = adversarial_fixture
    empty = Coalition.empty(6)
    assert matrix_utility(matrix, validation, Rule.VOTE)(empty) == 0.0
    assert matrix_utility(matrix, validation, Rule.VOTE, u_empty=0.75)(empty) == 0.75


def test_coalition_size_must_match_matrix(adversarial_fixture):
    matrix, validation = adversarial_fixture
    with pytest.raises(ConsistencyError):
        matrix_utility(matrix, validation, Rule.VOTE)(Coalition.full(5))


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
    assert oracle(Coalition.full(2)) == 1.0
    # row 1 alone: q0 -> argmax 1 != 0, q1 -> argmax 1 == 1
    assert oracle(Coalition.from_indices([1], 2)) == 0.5


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
    relabeled = [int(np.where(perm == i)[0][0]) for i in members]
    u1 = matrix_utility(m1, validation, Rule.VOTE)(Coalition.from_indices(members, n))
    u2 = matrix_utility(m2, validation, Rule.VOTE)(Coalition.from_indices(relabeled, n))
    assert u1 == u2


def test_matrix_utility_closure(adversarial_fixture):
    matrix, validation = adversarial_fixture
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    assert oracle(Coalition.from_indices([0], 6)) == 1.0
    assert oracle(Coalition.full(6)) == 0.0


def test_oracle_input_errors_raise_on_call():
    m = hard_matrix([[0, 1], [1, 1]])
    unknown = ValidationSet(instances=(("q0", 0), ("nope", 1)), num_labels=2)
    oracle = matrix_utility(m, unknown, Rule.VOTE, u_empty=0.25)
    assert oracle(Coalition.empty(2)) == 0.25
    with pytest.raises(ConsistencyError, match="nope"):
        oracle(Coalition.full(2))
    known = ValidationSet(instances=(("q0", 0),), num_labels=2)
    oracle = matrix_utility(m, known, Rule.AVERAGE_ARGMAX)
    with pytest.raises(ConsistencyError):
        oracle(Coalition.full(3))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            oracle(Coalition.full(2))


# ---------------------------------------------------------------------------
# the incremental oracle against a plain-Python reference


def reference_utility(matrix, validation, mask, rule, tie, u_empty):
    """Plurality vote or probability-average argmax, per instance in plain Python."""
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
            winner = sums.index(max(sums))
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
    with pytest.raises(ConsistencyError):
        PredictionMatrix(
            prompt_ids=("a",),
            instance_ids=("q0",),
            mode=Mode.HARD_LABEL,
            num_labels=2,
            hard=np.zeros((1, 1), dtype=np.int64),
            prob=np.ones((1, 1, 2)) / 2,
        )


def test_nan_probability_rejected(tmp_path):
    # NaN passes both the sign and the row-sum check, and the average rule
    # would take it for the row maximum
    with pytest.raises(ConsistencyError, match="finite"):
        prob_matrix([[[float("nan"), 1.0]]])
    path = tmp_path / "nan.csv"
    path.write_text('prompt_id,q0,q1\np0,"[NaN, 1.0]","[0.5, 0.5]"\n')
    with pytest.raises(ConsistencyError, match="finite"):
        load_matrix(path)


@pytest.mark.parametrize("cell, fault", [
    pytest.param('"[NaN, 1.0]"', "finite", id="nan-cell"),
    pytest.param('"[-0.5, 1.5]"', "nonnegative", id="negative-probability"),
    pytest.param('"[0.5, 0.6]"', "sum to 1", id="bad-row-sum"),
    pytest.param("5", "outside", id="label-out-of-range"),
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


def test_validation_file_round_trip(tmp_path):
    matrix, validation = make_adversarial_fixture()
    path = tmp_path / "validation.csv"
    write_validation(validation, path)
    loaded = load_validation(path)
    assert loaded == validation


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
    loaded = load_matrix(path)
    assert loaded.mode is Mode.PROBABILISTIC
    assert np.allclose(loaded.prob, m.prob)


def test_mixed_matrix_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text('prompt_id,q0,q1\np0,1,"[0.5, 0.5]"\n')
    with pytest.raises(ConsistencyError):
        load_matrix(path)


def test_matrix_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,q0\np0,1\n")
    with pytest.raises(ConsistencyError):
        load_matrix(path)
