"""Rank-and-add curves and best-prefix selection.

Players are sorted by value descending (ties broken by ascending prompt id),
then the utility of each prefix {top-1}, {top-1, top-2}, ..., full set is
evaluated. The best prefix is the smallest k attaining the curve's maximum
utility; because the full set is itself a prefix, the selected utility is
never below the full-set utility.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .errors import PreconditionError
from .game import BatchFn, ShapleyResult, _finite_real, run_batch


@dataclass(frozen=True)
class CurvePoint:
    k: int
    added_prompt_id: str
    utility: Optional[float]   # None marks the point where the oracle failed


@dataclass(frozen=True)
class Curve:
    points: tuple[CurvePoint, ...]
    error: Optional[str] = None
    failed_k: Optional[int] = None


@dataclass(frozen=True)
class BestPrefix:
    k: int
    utility: float
    prompt_ids: tuple[str, ...]


def rank_order(values: Sequence[float], prompt_ids: Sequence[str]) -> list[int]:
    """Player indices sorted by value descending, then prompt id ascending. A
    value that is not a finite real number (NaN, an infinity, a bool or a
    string) is a ``PreconditionError`` naming its prompt id."""
    if len(values) != len(prompt_ids):
        raise PreconditionError(
            f"{len(values)} values for {len(prompt_ids)} prompt ids"
        )
    for value, prompt_id in zip(values, prompt_ids):
        if not _finite_real(value):
            raise PreconditionError(
                f"rank value of prompt {prompt_id!r} is not a finite real number: {value!r}",
                prompt_id=prompt_id)
    values = [float(v) for v in values]     # a numpy unsigned int would wrap under -
    return sorted(range(len(values)), key=lambda i: (-values[i], prompt_ids[i]))


def rank_add_curve(values, prompt_ids: Sequence[str], batch: BatchFn) -> Curve:
    """Evaluate prefix utilities in rank order: one call of the mask-level
    ``batch`` for the n prefixes (see ``run_batch``), ranked by
    ``rank_order``.

    On an oracle failure, or a utility that is not a finite real number, the
    curve is returned up to the failed prefix, with the failure recorded
    instead of raised.
    """
    if isinstance(values, ShapleyResult):
        values = values.values
    values = list(values)
    if not values:
        raise PreconditionError("rank_add_curve needs at least one player")
    order = rank_order(values, prompt_ids)
    masks = list(accumulate((1 << idx for idx in order), operator.or_))
    utilities, error = run_batch(batch, masks, len(order))
    points = [CurvePoint(k=k, added_prompt_id=prompt_ids[idx], utility=float(utility))
              for k, (idx, utility) in enumerate(zip(order, utilities), start=1)]
    if error is None:
        return Curve(points=tuple(points))
    k = len(points) + 1
    points.append(CurvePoint(k=k, added_prompt_id=prompt_ids[order[k - 1]], utility=None))
    return Curve(points=tuple(points), error=str(error), failed_k=k)


def best_prefix(curve: Curve) -> BestPrefix:
    """Smallest k attaining the maximum utility among evaluated points."""
    valid = [p for p in curve.points if p.utility is not None]
    if not valid:
        raise PreconditionError("best_prefix needs a curve with at least one evaluated point")
    best = max(valid, key=lambda p: p.utility)   # max() keeps the earliest on ties
    ids = tuple(p.added_prompt_id for p in curve.points[: best.k])
    return BestPrefix(k=best.k, utility=best.utility, prompt_ids=ids)


def curve_to_csv(curve: Curve) -> str:
    lines = ["k,added_prompt_id,utility"]
    for p in curve.points:
        utility = "" if p.utility is None else repr(p.utility)
        lines.append(f"{p.k},{p.added_prompt_id},{utility}")
    return "\n".join(lines) + "\n"


def curve_to_json_dict(curve: Curve, best: Optional[BestPrefix] = None) -> dict:
    doc: dict = {
        "points": [
            {"k": p.k, "added_prompt_id": p.added_prompt_id, "utility": p.utility}
            for p in curve.points
        ]
    }
    if curve.error is not None:
        doc["error"] = curve.error
        doc["failed_k"] = curve.failed_k
    if best is not None:
        doc["best_prefix"] = {
            "k": best.k,
            "utility": best.utility,
            "prompt_ids": list(best.prompt_ids),
        }
    return doc
