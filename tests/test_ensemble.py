import sys
import threading

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
    discriminant,
    ensemble_average,
    ensemble_vote,
    load_matrix,
    load_validation,
    matrix_utility,
    utility_accuracy,
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


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant():
    assert discriminant(2, 2) == 1
    assert discriminant(0, 2) == 0
    assert discriminant(None, 1) == 0


# ---------------------------------------------------------------------------
# voting


def test_vote_strict_majority():
    m = hard_matrix([[0], [0], [1]])  # votes A, A, B
    assert ensemble_vote(m, Coalition.full(3), "q0") == 0


def test_vote_tie_abstains_by_default():
    m = hard_matrix([[0], [1]])
    assert ensemble_vote(m, Coalition.full(2), "q0") is None
    assert ensemble_vote(m, Coalition.full(2), "q0", tie=TieRule.LOWEST) == 0


def test_vote_plurality():
    m = hard_matrix([[0], [1], [1], [1]])  # A, B, B, B
    assert ensemble_vote(m, Coalition.full(4), "q0") == 1


def test_vote_empty_coalition_raises():
    m = hard_matrix([[0], [1]])
    with pytest.raises(PreconditionError):
        ensemble_vote(m, Coalition.empty(2), "q0")


def test_vote_unknown_instance():
    m = hard_matrix([[0], [1]])
    with pytest.raises(ConsistencyError):
        ensemble_vote(m, Coalition.full(2), "nope")


def test_vote_on_probabilistic_argmaxes_rows_first():
    # row ties argmax to the lowest label index
    m = prob_matrix([[[0.5, 0.5]], [[0.2, 0.8]], [[0.9, 0.1]]])
    assert m.hard_view().tolist() == [[0], [1], [0]]
    assert ensemble_vote(m, Coalition.full(3), "q0") == 0


# ---------------------------------------------------------------------------
# averaging


def test_average_hand_example():
    m = prob_matrix([[[0.8, 0.2]], [[0.4, 0.6]]])
    out = ensemble_average(m, Coalition.full(2), "q0")
    assert np.allclose(out, [0.6, 0.4])
    assert abs(out.sum() - 1.0) < 1e-6


def test_average_singleton_identity():
    m = prob_matrix([[[0.7, 0.3]], [[0.1, 0.9]]])
    assert np.allclose(ensemble_average(m, Coalition.from_indices([0], 2), "q0"), [0.7, 0.3])


def test_average_of_identical_rows():
    m = prob_matrix([[[0.65, 0.35]]] * 4)
    assert np.allclose(ensemble_average(m, Coalition.full(4), "q0"), [0.65, 0.35])


def test_average_requires_probabilistic():
    m = hard_matrix([[0], [1]])
    with pytest.raises(PreconditionError):
        ensemble_average(m, Coalition.full(2), "q0")
    p = prob_matrix([[[0.7, 0.3]]])
    with pytest.raises(PreconditionError):
        ensemble_average(p, Coalition.empty(1), "q0")


def test_single_classifier_perturbation_is_exact():
    # replacing one row's vector changes the average by exactly (1/|S|)|h' - h|
    # elementwise; dyadic entries and |S| = 4 keep the float arithmetic exact
    rows = [[[0.75, 0.25]], [[0.5, 0.5]], [[0.25, 0.75]], [[0.5, 0.5]]]
    m = prob_matrix(rows)
    perturbed_rows = [row[:] for row in rows]
    perturbed_rows[1] = [[0.25, 0.75]]
    m2 = prob_matrix(perturbed_rows)
    s = Coalition.full(4)
    before = ensemble_average(m, s, "q0")
    after = ensemble_average(m2, s, "q0")
    delta = np.abs(np.array(rows[1][0]) - np.array(perturbed_rows[1][0]))
    assert np.array_equal(np.abs(after - before), delta / 4.0)


# ---------------------------------------------------------------------------
# utility


def test_always_correct_prompts_give_unit_utility():
    golds = (0, 1, 2)
    validation = ValidationSet(
        instances=tuple((f"q{i}", g) for i, g in enumerate(golds)), num_labels=3
    )
    m = hard_matrix([list(golds)] * 3, num_labels=3)
    for mask in range(1, 8):
        assert utility_accuracy(m, validation, Coalition(mask, 3), Rule.VOTE) == 1.0


def test_adversarial_fixture_utilities(adversarial_fixture):
    matrix, validation = adversarial_fixture
    full = utility_accuracy(matrix, validation, Coalition.full(6), Rule.VOTE)
    assert full == 0.0  # 3-vs-3 tie abstains everywhere
    correct_only = utility_accuracy(
        matrix, validation, Coalition.from_indices([0, 1, 2], 6), Rule.VOTE
    )
    assert correct_only == 1.0
    # with the lowest-label tie rule the full set is no longer 0
    assert utility_accuracy(
        matrix, validation, Coalition.full(6), Rule.VOTE, tie=TieRule.LOWEST
    ) == 0.5


def test_empty_coalition_returns_declared_u_empty(adversarial_fixture):
    matrix, validation = adversarial_fixture
    assert utility_accuracy(matrix, validation, Coalition.empty(6), Rule.VOTE) == 0.0
    assert utility_accuracy(
        matrix, validation, Coalition.empty(6), Rule.VOTE, u_empty=0.75
    ) == 0.75


def test_coalition_size_must_match_matrix(adversarial_fixture):
    matrix, validation = adversarial_fixture
    with pytest.raises(ConsistencyError):
        utility_accuracy(matrix, validation, Coalition.full(5), Rule.VOTE)


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
    assert utility_accuracy(m, validation, Coalition.full(2), Rule.AVERAGE_ARGMAX) == 1.0
    # row 1 alone: q0 -> argmax 1 != 0, q1 -> argmax 1 == 1
    assert utility_accuracy(
        m, validation, Coalition.from_indices([1], 2), Rule.AVERAGE_ARGMAX
    ) == 0.5


def test_utility_values_are_multiples_of_one_over_v(adversarial_fixture):
    matrix, validation = adversarial_fixture
    v = len(validation.instances)
    for mask in range(1 << 6):
        u = utility_accuracy(matrix, validation, Coalition(mask, 6), Rule.VOTE)
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
    u1 = utility_accuracy(m1, validation, Coalition.from_indices(members, n), Rule.VOTE)
    u2 = utility_accuracy(m2, validation, Coalition.from_indices(relabeled, n), Rule.VOTE)
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
