"""Prompt-ensembling utility over an offline prediction matrix.

The matrix holds one row per prompt and one column per validation instance,
with either hard label indices or per-label probability vectors. A coalition's
utility is its mean validation accuracy when prompts ensemble by plurality
vote or by probability averaging followed by argmax; an instance counts as
correct only when the ensemble names its gold label, so a vote that abstains
on a tie counts as wrong. Both rules yield values that are exact multiples of
1/|validation|.

Cost model of the ``matrix_utility`` oracle: its first non-empty call maps the
validation ids to matrix columns and slices the matrix to them, once. The vote
rule then keeps integer per-label counts for the last coalition scored and
moves them by the prompt rows whose membership changed, so a call costs
O(changed rows * K * |V|) plus the O(K * |V|) plurality; exact enumeration's
ascending walk changes about two rows per step, an MC prefix one. The average
rule recomputes the mean over all member rows on every call, in ascending row
order, so its float results and argmax ties never depend on visit order.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .coalition import Coalition
from .errors import ConsistencyError, PreconditionError
from .game import UtilityFn


class Mode(str, Enum):
    HARD_LABEL = "hard_label"
    PROBABILISTIC = "probabilistic"


class Rule(str, Enum):
    VOTE = "vote"
    AVERAGE_ARGMAX = "average"


class TieRule(str, Enum):
    ABSTAIN = "abstain"
    LOWEST = "lowest"


@dataclass(frozen=True)
class ValidationSet:
    instances: tuple[tuple[str, int], ...]
    num_labels: int

    def __post_init__(self):
        if not self.instances:
            raise PreconditionError("validation set is empty")
        if self.num_labels < 1:
            raise PreconditionError(f"num_labels must be >= 1, got {self.num_labels}")
        ids = [iid for iid, _ in self.instances]
        if len(set(ids)) != len(ids):
            raise ConsistencyError("validation instance ids are not unique")
        for iid, gold in self.instances:
            if not 0 <= gold < self.num_labels:
                raise ConsistencyError(
                    f"instance {iid!r} has gold label {gold} outside 0..{self.num_labels - 1}"
                )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(iid for iid, _ in self.instances)

    @property
    def golds(self) -> tuple[int, ...]:
        return tuple(gold for _, gold in self.instances)


@dataclass(frozen=True)
class PredictionMatrix:
    prompt_ids: tuple[str, ...]
    instance_ids: tuple[str, ...]
    mode: Mode
    num_labels: int
    hard: Optional[np.ndarray] = None    # (prompts, instances) int
    prob: Optional[np.ndarray] = None    # (prompts, instances, labels) float

    def __post_init__(self):
        if len(set(self.prompt_ids)) != len(self.prompt_ids):
            raise ConsistencyError("prompt ids are not unique")
        if len(set(self.instance_ids)) != len(self.instance_ids):
            raise ConsistencyError("instance ids are not unique")
        shape = (len(self.prompt_ids), len(self.instance_ids))
        if self.mode is Mode.HARD_LABEL:
            if self.hard is None or self.prob is not None:
                raise ConsistencyError("hard-label matrix must set exactly the hard field")
            if self.hard.shape != shape:
                raise ConsistencyError(f"matrix shape {self.hard.shape} != {shape}")
            if self.hard.size and (self.hard.min() < 0 or self.hard.max() >= self.num_labels):
                raise ConsistencyError("hard labels fall outside 0..num_labels-1")
            self.hard.setflags(write=False)
        else:
            if self.prob is None or self.hard is not None:
                raise ConsistencyError("probabilistic matrix must set exactly the prob field")
            if self.prob.shape != shape + (self.num_labels,):
                raise ConsistencyError(
                    f"matrix shape {self.prob.shape} != {shape + (self.num_labels,)}"
                )
            if self.prob.size:
                # NaN fails every comparison, so it would pass both checks below
                if not np.isfinite(self.prob).all():
                    raise ConsistencyError("probability entries must be finite")
                if self.prob.min() < 0:
                    raise ConsistencyError("probability entries must be nonnegative")
                sums = self.prob.sum(axis=2)
                if np.max(np.abs(sums - 1.0)) > 1e-6:
                    raise ConsistencyError("probability rows must sum to 1 within 1e-6")

    def hard_view(self) -> np.ndarray:
        """Hard labels; probabilistic entries argmax with lowest-index tie-break."""
        if self.mode is Mode.HARD_LABEL:
            return self.hard
        return np.argmax(self.prob, axis=2)


def _check_coalition(matrix: PredictionMatrix, coalition: Coalition) -> None:
    if coalition.n != len(matrix.prompt_ids):
        raise ConsistencyError(
            f"coalition is over {coalition.n} players but the matrix has "
            f"{len(matrix.prompt_ids)} prompts"
        )


def _columns(matrix: PredictionMatrix, ids) -> list[int]:
    """Matrix column of each instance id, in the order given."""
    index = {iid: col for col, iid in enumerate(matrix.instance_ids)}
    try:
        return [index[iid] for iid in ids]
    except KeyError as exc:
        raise ConsistencyError(f"instance {exc.args[0]!r} not in the matrix") from None


def _one_hot(labels: np.ndarray, num_labels: int) -> np.ndarray:
    """(..., columns) label indices -> (..., labels, columns) int64 indicators."""
    return (labels[..., None, :] == np.arange(num_labels)[:, None]).astype(np.int64)


def _plurality(counts: np.ndarray, tie: TieRule) -> np.ndarray:
    """Plurality label per column of a (labels, columns) vote-count array;
    -1 encodes abstention on first-place ties, which no gold label matches."""
    winner = counts.argmax(axis=0)          # lowest label index on equal counts
    if tie is TieRule.LOWEST:
        return winner
    top = counts.max(axis=0)
    tied = (counts == top).sum(axis=0) > 1
    return np.where(tied, -1, winner)


class _VoteCounts:
    """Per-label vote counts of one coalition, moved to the next coalition by
    adding or subtracting only the prompt rows whose membership differs.
    Integer counts make the result independent of the order coalitions arrive in."""

    def __init__(self, one_hot: np.ndarray):
        self.one_hot = one_hot              # (prompts, labels, columns)
        self.counts = np.zeros(one_hot.shape[1:], dtype=np.int64)
        self.mask = 0

    def move_to(self, mask: int) -> np.ndarray:
        diff = mask ^ self.mask
        while diff:
            bit = diff & -diff
            row = self.one_hot[bit.bit_length() - 1]
            if mask & bit:
                self.counts += row
            else:
                self.counts -= row
            self.mask ^= bit
            diff ^= bit
        return self.counts


def matrix_utility(matrix: PredictionMatrix, validation: ValidationSet, rule: Rule,
                   tie: TieRule = TieRule.ABSTAIN, u_empty: float = 0.0) -> UtilityFn:
    """Close over the inputs as a deterministic, thread-safe Coalition -> accuracy oracle.

    The first non-empty call resolves the validation columns and builds the
    rule's tables, so input errors surface there as they would on any call.
    """
    lock = threading.Lock()
    golds = np.array(validation.golds)
    predict = None                          # non-empty Coalition -> label per validation column

    def build():
        cols = _columns(matrix, validation.ids)
        if rule is Rule.VOTE:
            votes = _VoteCounts(_one_hot(matrix.hard_view()[:, cols], matrix.num_labels))
            return lambda coalition: _plurality(votes.move_to(coalition.mask), tie)
        if matrix.mode is not Mode.PROBABILISTIC:
            raise PreconditionError("average rule requires a probabilistic matrix")
        prob = matrix.prob[:, cols]          # (prompts, columns, labels)
        # a fresh mean over members in ascending order gives the same float sums,
        # hence the same argmax ties, whatever order coalitions arrive in
        return lambda coalition: np.argmax(
            prob[list(coalition.indices())].mean(axis=0), axis=1
        )

    def oracle(coalition: Coalition) -> float:
        nonlocal predict
        _check_coalition(matrix, coalition)
        if coalition.size == 0:
            return u_empty
        with lock:
            if predict is None:
                predict = build()
            correct = int(np.count_nonzero(predict(coalition) == golds))
        return correct / len(validation.instances)

    return oracle


# ---------------------------------------------------------------------------
# file formats


def load_validation(path) -> ValidationSet:
    """CSV with a '#num_labels=K' first line, then an instance_id,gold_label table."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("#num_labels="):
            raise ConsistencyError(f"{path}: first line must be '#num_labels=K', got {first!r}")
        try:
            num_labels = int(first.split("=", 1)[1])
        except ValueError:
            raise ConsistencyError(f"{path}: cannot parse num_labels from {first!r}") from None
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["instance_id", "gold_label"]:
            raise ConsistencyError(f"{path}: expected header instance_id,gold_label, got {header}")
        instances = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ConsistencyError(f"{path}: malformed row {row}")
            try:
                instances.append((row[0], int(row[1])))
            except ValueError:
                raise ConsistencyError(f"{path}: gold label {row[1]!r} is not an integer") from None
    return ValidationSet(instances=tuple(instances), num_labels=num_labels)


def write_validation(validation: ValidationSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#num_labels={validation.num_labels}\n")
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "gold_label"])
        for iid, gold in validation.instances:
            writer.writerow([iid, gold])


def load_matrix(path, num_labels: Optional[int] = None) -> PredictionMatrix:
    """CSV with header 'prompt_id,<instance ids...>'; cells are either bare integers
    (hard labels) or JSON arrays (probability vectors). Mixed files are rejected."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "prompt_id" or len(header) < 2:
            raise ConsistencyError(f"{path}: expected header 'prompt_id,<instance ids>'")
        instance_ids = tuple(h.strip() for h in header[1:])
        prompt_ids: list[str] = []
        cells: list[list[str]] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConsistencyError(
                    f"{path}: prompt {row[0]!r} has {len(row) - 1} cells, "
                    f"expected {len(instance_ids)}"
                )
            prompt_ids.append(row[0])
            cells.append([c.strip() for c in row[1:]])
    if not cells:
        raise ConsistencyError(f"{path}: matrix has no prompt rows")
    probabilistic = cells[0][0].startswith("[")
    flat = [c for row in cells for c in row]
    if any(c.startswith("[") != probabilistic for c in flat):
        raise ConsistencyError(f"{path}: mixed hard-label and probability cells")
    if probabilistic:
        vectors = [[_parse_prob_cell(path, c) for c in row] for row in cells]
        lengths = {len(v) for row in vectors for v in row}
        if len(lengths) != 1:
            raise ConsistencyError(f"{path}: probability vectors differ in length: {lengths}")
        k = lengths.pop()
        if num_labels is not None and num_labels != k:
            raise ConsistencyError(f"{path}: vectors have {k} labels, expected {num_labels}")
        content = {"mode": Mode.PROBABILISTIC, "num_labels": k,
                   "prob": np.array(vectors, dtype=np.float64)}
    else:
        try:
            hard = np.array([[int(c) for c in row] for row in cells], dtype=np.int64)
        except ValueError:
            raise ConsistencyError(f"{path}: hard-label cells must be integers") from None
        k = num_labels if num_labels is not None else int(hard.max()) + 1
        content = {"mode": Mode.HARD_LABEL, "num_labels": k, "hard": hard}
    try:
        return PredictionMatrix(prompt_ids=tuple(prompt_ids), instance_ids=instance_ids, **content)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from None


def _parse_prob_cell(path, cell: str) -> list[float]:
    try:
        vec = json.loads(cell)
    except json.JSONDecodeError:
        raise ConsistencyError(f"{path}: cannot parse probability cell {cell!r}") from None
    if not isinstance(vec, list) or not all(isinstance(x, (int, float)) for x in vec):
        raise ConsistencyError(f"{path}: probability cell {cell!r} is not a number array")
    return [float(x) for x in vec]


def write_matrix(matrix: PredictionMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prompt_id", *matrix.instance_ids])
        for r, pid in enumerate(matrix.prompt_ids):
            if matrix.mode is Mode.HARD_LABEL:
                writer.writerow([pid, *(int(x) for x in matrix.hard[r])])
            else:
                writer.writerow(
                    [pid, *(json.dumps([float(x) for x in vec]) for vec in matrix.prob[r])]
                )
