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
rule then keeps, for the last coalition scored, one Python int per label that
packs the gold-minus-rival vote margin of every validation column into a
w-bit field (w = 8 bits while there are fewer than 128 prompts), and moves
them by the prompt rows whose membership changed. A call costs K big-int adds
of |V| * w bits per changed row, K ANDs and one popcount; exact enumeration's
ascending walk changes about two rows per step, an MC prefix one. The average
rule recomputes the mean over all member rows on every call, in ascending row
order, so its float results and argmax ties never depend on visit order.
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .coalition import Coalition
from .errors import ConsistencyError, PreconditionError
from .game import UtilityFn
from .jsonio import all_numbers, read_csv


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


class _MarginScorer:
    """Correct-instance count of one coalition under plurality vote, moved to
    the next coalition by adding or subtracting only the prompt rows whose
    membership differs. Integer counts make the result independent of the
    order coalitions arrive in.

    Each validation column owns one w-bit field of a Python int, column j at
    bits [w*j, w*(j+1)), where w in (8, 16, 32, 64) is the smallest width with
    ``prompts < 2**(w-1)``. For each label l, ``margins[l]`` holds in every
    column ``c + g - r``: ``g`` is the gold label's votes, ``r`` label l's
    votes with the gold slot held at 0, and ``c`` is ``2**(w-1) - 1``, plus 1
    on the labels above gold under ``lowest``. A field's top bit is then set
    exactly when ``g > r``, or ``g >= r`` on those higher labels, as argmax
    keeps the lowest index on ties; on the gold slot it asks for one gold
    vote. Gold wins a column when every label's top bit is set, so a
    coalition scores ``(top & margins[0] & ... & margins[K-1]).bit_count()``.

    No carry or borrow crosses a field: ``g + r`` is at most the prompt
    count P, so a field stays in ``[c - P, c + 1 + P]``, inside ``[0, 2**w)``
    because ``P < 2**(w-1)``; a packed int is then exactly the sum of its
    shifted fields, after any sequence of moves. Moving prompt p adds or
    subtracts its packed per-label delta, ``pack(p votes gold) - pack(p votes
    l, gold slot 0)``. The tables take P * K * |V| * w/8 bytes."""

    def __init__(self, labels: np.ndarray, golds: np.ndarray, num_labels: int,
                 tie: TieRule):
        width = next(w for w in (8, 16, 32, 64) if labels.shape[0] < 2 ** (w - 1))
        field = np.dtype(f"<u{width // 8}")     # little-endian: column 0 in the low bits

        def pack(fields: np.ndarray) -> int:
            return int.from_bytes(fields.astype(field).tobytes(), "little")

        label_ids = np.arange(num_labels)[:, None]
        not_gold = label_ids != golds                     # (labels, columns)
        start = np.full(not_gold.shape, 2 ** (width - 1) - 1, dtype=field)
        if tie is TieRule.LOWEST:
            start += label_ids > golds
        self.top = pack(np.full(len(golds), 2 ** (width - 1), dtype=field))
        self.margins = [pack(row) for row in start]
        self.deltas = []                                  # per prompt, one delta per label
        for row in labels:
            gold = pack(row == golds)
            self.deltas.append([gold - pack(votes) for votes in (row == label_ids) & not_gold])
        self.mask = 0

    def correct(self, mask: int) -> int:
        margins = self.margins
        diff = mask ^ self.mask
        while diff:
            bit = diff & -diff
            move = operator.add if mask & bit else operator.sub
            margins = list(map(move, margins, self.deltas[bit.bit_length() - 1]))
            diff ^= bit
        self.margins, self.mask = margins, mask
        wins = self.top
        for m in margins:
            wins &= m
        return wins.bit_count()


def matrix_utility(matrix: PredictionMatrix, validation: ValidationSet, rule: Rule,
                   tie: TieRule = TieRule.ABSTAIN, u_empty: float = 0.0) -> UtilityFn:
    """Close over the inputs as a deterministic, thread-safe Coalition -> accuracy oracle.

    The first non-empty call resolves the validation columns and builds the
    rule's tables, so input errors surface there as they would on any call.
    """
    lock = threading.Lock()
    golds = np.array(validation.golds)
    correct = None                          # non-empty Coalition -> correct instances

    def build():
        cols = _columns(matrix, validation.ids)
        if rule is Rule.VOTE:
            scorer = _MarginScorer(matrix.hard_view()[:, cols], golds, matrix.num_labels, tie)
            return lambda coalition: scorer.correct(coalition.mask)
        if matrix.mode is not Mode.PROBABILISTIC:
            raise PreconditionError("average rule requires a probabilistic matrix")
        prob = matrix.prob[:, cols]          # (prompts, columns, labels)
        # a fresh mean over members in ascending order gives the same float sums,
        # hence the same argmax ties, whatever order coalitions arrive in
        return lambda coalition: int(np.count_nonzero(
            np.argmax(prob[list(coalition.indices())].mean(axis=0), axis=1) == golds
        ))

    def oracle(coalition: Coalition) -> float:
        nonlocal correct
        _check_coalition(matrix, coalition)
        if coalition.size == 0:
            return u_empty
        with lock:
            if correct is None:
                correct = build()
            hits = correct(coalition)
        return hits / len(validation.instances)

    return oracle


# ---------------------------------------------------------------------------
# file formats


def load_validation(path) -> ValidationSet:
    """CSV with a '#num_labels=K' first line, then an instance_id,gold_label table."""
    return read_csv(path, _validation_from_rows)


def _validation_from_rows(reader) -> ValidationSet:
    first = ",".join(next(reader, [])).strip()   # the first line, which csv split on commas
    if not first.startswith("#num_labels="):
        raise ValueError(f"first line must be '#num_labels=K', got {first!r}")
    num_labels = int(first.split("=", 1)[1])
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["instance_id", "gold_label"]:
        raise ValueError(f"expected header instance_id,gold_label, got {header}")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != 2:
            raise ValueError(f"malformed row {row}")
    return ValidationSet(instances=tuple((iid, int(gold)) for iid, gold in rows),
                         num_labels=num_labels)


def load_matrix(path, num_labels: int) -> PredictionMatrix:
    """CSV with header 'prompt_id,<instance ids...>'; cells are either bare integer
    labels or JSON arrays of ``num_labels`` probabilities, never both."""
    return read_csv(path, lambda reader: _matrix_from_rows(reader, num_labels))


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
