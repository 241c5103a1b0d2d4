"""Prompt-ensembling utility over an offline prediction matrix.

The matrix holds one row per prompt and one column per validation instance,
with either hard label indices or per-label probability vectors. A coalition's
utility is its mean validation accuracy when prompts ensemble by plurality
vote or by probability averaging followed by argmax; an instance counts as
correct only when the ensemble names its gold label, so a vote that abstains
on a tie counts as wrong. Both rules yield values that are exact multiples of
1/|validation|.

``matrix_utility`` returns the game's ``Oracle``; its mask-level ``batch`` is
the rule's scorer behind ``game.checked_batch``, which holds the batch
contract (the player count and the masks it accepts). Cost model of the
batch: the first batch holding a non-empty coalition maps the
validation ids to matrix columns, slices the matrix to them and builds the
rule's subset-sum tables, once. A table covers a block of at most 8 prompts,
so it has at most 2^8 entries.

- Vote: every block keeps, for each subset of its prompts, the packed
  gold-minus-rival vote margins (one Python int of K * |V| w-bit fields,
  w = 5 for 8 to 15 prompts), built by doubling. A mask costs one big-int
  add per further block, ceil(log2(K)) shifts and ANDs and one popcount,
  whatever order the masks come in.
- Average: one label-major table, (2^lo, K, |V|), of the probability sums
  of each subset of the low prompts, built by doubling and kept within
  ``_TABLE_BYTES``. Masks are grouped by their high prompts; a group gathers
  its low sums, adds the high rows in ascending order and divides by the
  member count, so every mean has the bits of ``prob[rows].mean(axis=0)``,
  and no group holds more than 2^lo coalitions. The means of several groups
  go into one buffer of (K, coalitions * |V|) planes, within
  ``_TABLE_BYTES``, and each full buffer is compared at once: gold wins an
  instance when its mean beats every lower label's and is at least every
  higher label's, argmax's first-max rule, with the gold plane read through
  a fixed index and no per-row argmax. Scoring all 4,095 coalitions at 12
  prompts, |V| = 100, K = 4 took about 10 ms (2-core Xeon VM, in-process).

Cost model of ``load_matrix``: one pass strips the cells, and one count over
their first characters tells how many start with ``[``. A hard-label matrix
converts with one ``map(int, ...)`` into one int64 array. A probabilistic
matrix parses with one ``json.loads`` of its cells joined into one array,
type-checks the result in one pass and converts it with one ``np.fromiter``;
a file that parse does not accept goes through the cell-by-cell parse, which
raises the first faulty cell's error (``_joined_prob_cells`` argues the
bits are the same). At 40 prompts x 872 instances x 2 labels the load took
52-81 ms, against 148-191 ms cell by cell; at 12 x 100 x 4, 3.1-4.5 ms
against 8.7-9.0 ms (2-core Xeon VM, in-process medians of two rounds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import getitem
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .game import Oracle, checked_batch
from .jsonio import FAULTS, all_numbers, read_csv


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


def _columns(matrix: PredictionMatrix, ids) -> list[int]:
    """Matrix column of each instance id, in the order given."""
    index = {iid: col for col, iid in enumerate(matrix.instance_ids)}
    try:
        return [index[iid] for iid in ids]
    except KeyError as exc:
        raise ConsistencyError(f"instance {exc.args[0]!r} not in the matrix") from None


# players per subset-sum table: at most 2**8 entries each
_BLOCK_PLAYERS = 8
# bytes of the average rule's low-player table, and of its buffer of means, at most
_TABLE_BYTES = 1 << 18


def _vote_scorer(labels: np.ndarray, golds: np.ndarray, num_labels: int, tie: TieRule):
    """masks -> correct-instance counts under plurality vote, from integer
    subset sums, so the result never depends on the order masks arrive in.

    A coalition's margins are one Python int of K segments of |V| w-bit
    fields: label l's segment sits at bits [l*S, (l+1)*S), S = |V| * w, and
    column j's field within it at [w*j, w*(j+1)); w is the smallest width
    with ``prompts < 2**(w-1)``. Label l's field holds ``c + g - r``: ``g``
    is the gold label's votes, ``r`` label l's votes with the gold slot held
    at 0, and ``c`` is ``2**(w-1) - 1``, plus 1 on the labels above gold
    under ``lowest``. A field's top bit is then set exactly when ``g > r``,
    or ``g >= r`` on those higher labels, as argmax keeps the lowest index on
    ties; on the gold slot it asks for one gold vote. Gold wins a column when
    every label's top bit is set: shifting the int down by whole segments and
    ANDing folds the K segments onto label 0's, and the coalition scores
    ``(top & folded).bit_count()``, ``top`` holding label 0's top bits.

    The margins are a sum of per-prompt deltas, ``pack(p votes gold) -
    pack(p votes l, gold slot 0)`` in every segment, plus ``pack(c)``. Each
    block of at most ``_BLOCK_PLAYERS`` prompts keeps the sum over every
    subset of its prompts, built by doubling (each prompt adds its delta to
    every sum so far), the first block's sums including ``pack(c)``; a mask
    adds one entry per block. The sum is exact integer arithmetic, and no
    carry or borrow crosses a field of the total: ``g + r`` is at most the
    prompt count P, so a field stays in ``[c - P, c + 1 + P]``, inside
    ``[0, 2**w)`` because ``P < 2**(w-1)``. The P prompts split into
    ``ceil(P/8)`` blocks of equal size, up to one, so the tables hold at most
    ``ceil(P/8) * 2**8`` ints of ``K * |V| * w`` bits: two of 64 at P = 12."""
    prompts = labels.shape[0]
    width = prompts.bit_length() + 1

    def pack(fields: np.ndarray) -> int:
        """Fields in [0, 2**width), the first in the low bits."""
        fields = np.asarray(fields, dtype=np.int64)
        bits = (fields[..., None] >> np.arange(width) & 1).astype(np.uint8)
        return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(),
                              "little")

    label_ids = np.arange(num_labels)[:, None]
    not_gold = label_ids != golds                     # (labels, columns)
    start = np.full(not_gold.shape, 2 ** (width - 1) - 1)
    if tie is TieRule.LOWEST:
        start += label_ids > golds
    top = pack(np.full(len(golds), 2 ** (width - 1)))
    blocks = -(-prompts // _BLOCK_PLAYERS)
    size = -(-prompts // blocks)                      # players per block, balanced
    tables = []
    for first in range(0, prompts, size):
        table = [pack(start) if first == 0 else 0]
        for row in labels[first:first + size]:
            delta = pack(np.broadcast_to(row == golds, not_gold.shape)) - \
                pack((row == label_ids) & not_gold)
            table += [total + delta for total in table]
        tables.append((first, table))
    (_, base), *rest = tables
    low = (1 << size) - 1
    segment = len(golds) * width
    folds = []                                        # shifts that AND all K segments onto 0
    covered = 1
    while covered < num_labels:
        step = min(covered, num_labels - covered)
        folds.append(step * segment)
        covered += step

    def score(masks: Sequence[int]) -> list[int]:
        hits = []
        for mask in masks:
            total = base[mask & low]
            for shift, table in rest:
                total += table[mask >> shift & low]
            for fold in folds:
                total &= total >> fold
            hits.append((top & total).bit_count())
        return hits

    return score


def _average_sums(prob: np.ndarray, lo: int):
    """masks -> (positions, sums) per group of at most ``2**lo`` masks sharing
    their prompts from ``lo`` up: ``sums[i]`` is the probability sum of the
    mask at ``positions[i]``, the ascending fold ``prob[rows].sum(axis=0)``
    computes, ``((0.0 + r_1) + r_2) + ...`` over its member rows. (With one
    instance and one label numpy sums pairwise instead; every coalition then
    names label 0, the gold label, whatever the sum.) A group holds each low
    part once unless masks repeat, so only repeated masks split a group.

    The sums over the first ``lo`` prompts come from one table built by
    doubling: entry ``s + 2**j`` is entry ``s`` plus row j, so each entry is
    the ascending fold of its rows. A group gathers its low sums and adds its
    high rows in ascending order, continuing the same fold, so no
    intermediate holds more than 2**lo rows of ``prob``."""
    table = np.empty((1 << lo, *prob.shape[1:]))
    table[0] = 0.0
    for j in range(lo):
        np.add(table[: 1 << j], prob[j], out=table[1 << j: 2 << j])
    low = (1 << lo) - 1

    def sums(masks: Sequence[int]):
        groups: dict[int, list[int]] = {}
        for i, mask in enumerate(masks):
            groups.setdefault(mask >> lo, []).append(i)
        for high, members in groups.items():
            for start in range(0, len(members), 1 << lo):
                positions = members[start:start + (1 << lo)]
                total = table[[masks[i] & low for i in positions]]
                row, rest = lo, high
                while rest:
                    if rest & 1:
                        total += prob[row]
                    rest >>= 1
                    row += 1
                yield positions, total

    return sums


def _average_scorer(prob: np.ndarray, golds: np.ndarray):
    """masks -> correct-instance counts under probability averaging. Each
    mean is ``_average_sums``'s fold divided by the member count, as
    ``prob[rows].mean(axis=0)`` computes it, so its float results and ties
    never depend on the order masks arrive in. The low table covers the
    most prompts, at most ``_BLOCK_PLAYERS``, that fit ``_TABLE_BYTES``.

    The sums are label-major, (K, |V|) per coalition, and are compared on
    (K, coalitions * |V|) planes (``_gold_wins``). The means of several
    groups are divided into one such buffer, of at most ``_TABLE_BYTES``,
    and compared once per full buffer. The gold plane is read through a flat
    index built once, and the labels that a tie leaves to gold are a mask
    built once."""
    prompts, instances, labels = prob.shape
    lo = max(0, min(prompts, _BLOCK_PLAYERS, (_TABLE_BYTES // prob[0].nbytes).bit_length() - 1))
    sums_of = _average_sums(np.ascontiguousarray(prob.transpose(0, 2, 1)), lo)
    rows = max(1, _TABLE_BYTES // prob[0].nbytes)     # coalitions per buffer, at least 2**lo
    width = rows * instances
    gold_at = np.tile(golds, rows) * width + np.arange(width)   # gold in the (K, width) buffer
    ties = np.tile(np.arange(labels)[:, None] >= golds, rows)

    def score(masks: Sequence[int]) -> list[int]:
        hits = [0] * len(masks)
        planes = np.empty((labels, width))
        held: list[int] = []                # positions of the coalitions in ``planes``

        def tally():
            used = len(held) * instances
            wins = _gold_wins(planes[:, :used], planes.take(gold_at[:used]), ties[:, :used])
            for i, count in zip(held, np.add.reduce(wins.reshape(-1, instances), axis=1).tolist()):
                hits[i] = count

        for positions, sums in sums_of(masks):
            if len(held) + len(positions) > rows:
                tally()
                held.clear()
            at = len(held) * instances
            counts = np.array([masks[i].bit_count() for i in positions], dtype=np.float64)[:, None]
            np.divide(sums.transpose(1, 0, 2), counts,
                      out=planes[:, at:at + len(positions) * instances].reshape(labels, -1, instances))
            held += positions
        tally()
        return hits

    return score


def _gold_wins(means: np.ndarray, gold: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Per column of the (K, columns) label planes ``means``, whether gold
    wins: its mean ``gold`` beats every label's where ``ties`` is False (the
    labels below gold) and is at least every label's where it is True (gold
    and the labels above), argmax's first-max rule. No mean is NaN: a sum of
    finite entries that overflows stays at one infinity."""
    return np.logical_and.reduce((means < gold) | (ties & (means == gold)))


def matrix_utility(matrix: PredictionMatrix, validation: ValidationSet, rule: Rule,
                   tie: TieRule = TieRule.ABSTAIN, u_empty: float = 0.0) -> Oracle:
    """Close over the inputs as a deterministic accuracy ``Oracle``, whose
    ``batch(masks, n)`` scores many coalitions at once and gives ``u_empty``
    for the empty one.

    The first batch holding a non-empty coalition resolves the validation
    columns and builds the rule's tables, so input errors surface on that
    coalition. A built scorer holds no per-call state, so concurrent calls
    are safe; two first calls may both build it, to the same tables.
    """
    golds = np.array(validation.golds)
    instances = len(validation.instances)
    score = None                            # masks of non-empty coalitions -> correct counts

    def build():
        cols = _columns(matrix, validation.ids)
        if rule is Rule.VOTE:
            return _vote_scorer(matrix.hard_view()[:, cols], golds, matrix.num_labels, tie)
        if matrix.mode is not Mode.PROBABILISTIC:
            raise PreconditionError("average rule requires a probabilistic matrix")
        return _average_scorer(matrix.prob[:, cols], golds)

    def scores(masks: Sequence[int]):
        nonlocal score
        hits = None
        for i, mask in enumerate(masks):
            if not mask:
                yield u_empty
                continue
            if hits is None:
                if score is None:
                    score = build()
                hits = iter(score([m for m in masks[i:] if m]))
            yield next(hits) / instances

    prompts = len(matrix.prompt_ids)
    return Oracle(checked_batch(prompts, f"the matrix has {prompts} prompts", scores))


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
    shape = (len(rows), len(header) - 1)
    cells = list(map(str.strip, chain.from_iterable(row[1:] for row in rows)))   # row-major
    # how many cells start with "[": one count over the cells' first characters
    brackets = "".join(map(getitem, cells, repeat(slice(1)))).count("[")
    if 0 < brackets < len(cells):
        raise ValueError("mixed hard-label and probability cells")
    if brackets:
        prob = _joined_prob_cells(cells, num_labels)
        if prob is None:
            prob = _prob_cells(cells, num_labels)
        content = {"mode": Mode.PROBABILISTIC, "prob": prob.reshape(*shape, num_labels)}
    else:
        content = {"mode": Mode.HARD_LABEL,
                   "hard": np.array(list(map(int, cells)), dtype=np.int64).reshape(shape)}
    return PredictionMatrix(prompt_ids=tuple(row[0] for row in rows),
                            instance_ids=tuple(h.strip() for h in header[1:]),
                            num_labels=num_labels, **content)


def _joined_prob_cells(cells: list[str], num_labels: int) -> Optional[np.ndarray]:
    """The probability ``cells`` (each starting with ``[``) as one flat
    float64 array, row-major, from one ``json.loads`` of the cells
    joined into one array, or None where that parse does not accept them.

    It accepts them when the parse gives one item per cell, each a list of
    ``num_labels`` JSON numbers (an ``int`` or a ``float``, never a bool).
    Each cell then parses on its own to its item, so the array holds the bits
    ``_prob_cells`` gives: the items hold no strings and no lists of their
    own, so the text's ``[`` characters are the outer one and one per item,
    and as every cell starts with ``[``, item i starts where cell i does.
    Between the ``]`` that ends it and the next ``[`` there is only JSON
    whitespace and one comma, the one put before cell i + 1 (or, after the
    last item, the closing ``]`` appended), and a stripped cell ends with no
    whitespace, so cell i is exactly the text of item i. numpy converts an
    int to float64 as ``float`` does, and raises the same ``OverflowError``
    where it does not fit (the caller then parses cell by cell, to raise
    it)."""
    try:
        items = json.loads("[" + ",".join(cells) + "]")
        if (len(items) != len(cells) or {*map(type, items)} != {list}
                or {*map(len, items)} != {num_labels}
                or not all_numbers(chain.from_iterable(items))):
            return None
        return np.fromiter(chain.from_iterable(items), dtype=np.float64,
                           count=len(cells) * num_labels)
    except FAULTS:
        return None


def _prob_cells(cells: list[str], num_labels: int) -> np.ndarray:
    """The probability ``cells`` parsed one by one, as ``(cells, num_labels)``
    float64: the path of the files ``_joined_prob_cells`` does not accept,
    which raises the first faulty cell's fault, in row-major order, then a
    wrong vector length."""
    vectors = list(map(_parse_prob_cell, cells))
    lengths = {*map(len, vectors)}
    if lengths != {num_labels}:
        raise ValueError(
            f"probability vectors have {sorted(lengths)} labels, expected {num_labels}")
    return np.array(vectors, dtype=np.float64)


def _parse_prob_cell(cell: str) -> list[float]:
    vec = json.loads(cell)
    if not isinstance(vec, list) or not all_numbers(vec):
        raise ValueError(f"probability cell {cell!r} is not a number array")
    return [float(x) for x in vec]
