"""Canonical JSON and JSON Lines helpers.

Every JSON document the package writes is the text of
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, so identical
runs produce byte-identical output (sorted keys, fixed indentation, ASCII
escapes, shortest-round-trip float rendering): ``dumps`` for stdout and
stderr, and ``write_json`` for files, which streams ``json``'s chunks into
the file and so never holds the document's text.

Every input file is read through ``read_json``, ``read_jsonl`` or
``read_csv``, and a loader's step on the whole file runs inside
``reading(path)``, so a bad input fails the same way everywhere: a file that
cannot be opened, text that is not UTF-8, invalid JSON (nesting too deep for
the decoder included), a CSV field past ``csv``'s size limit, a document or
row that is not an object, and any KeyError, TypeError, ValueError or
OverflowError from the caller's code become a ``ConsistencyError`` naming the
file (for a JSON Lines row also the line); a ``PromptShapError`` keeps its
class and details under the same prefix.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager

from .errors import ConsistencyError, PromptShapError

# what a parser, a checked constructor or the decoder raises on a bad input:
# bad UTF-8 or JSON and an integer of more digits than ``int`` parses
# (ValueError), nesting deeper than the decoder's stack (RecursionError), a
# CSV field past csv's size limit (csv.Error), a missing field, a value of
# the wrong type, an integer too large for a float; the one list for every
# parse of outside bytes (the readers here, cache lines, the joined
# probability cells and the client's reply bodies)
FAULTS = (KeyError, TypeError, ValueError, OverflowError, RecursionError, csv.Error,
          PromptShapError)


def _fault(where, exc: Exception) -> PromptShapError:
    if isinstance(exc, PromptShapError):
        return type(exc)(f"{where}: {exc}", **exc.details)
    if isinstance(exc, json.JSONDecodeError):
        return ConsistencyError(f"{where}: invalid JSON: {exc}")
    if isinstance(exc, KeyError):
        return ConsistencyError(f"{where}: missing field {exc}")
    return ConsistencyError(f"{where}: {exc}")


def _open(path):
    # binary, so that JSON Lines decode line by line and a bad byte has a line number
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ConsistencyError(f"{path}: cannot read input file: {exc.strerror}") from None


_NUMBER_TYPES = frozenset({int, float})


def all_numbers(values) -> bool:
    """Every item of ``values`` is a JSON number: an int or a float, never a
    bool or a string (one set insert per item, cheaper than ``float(x)``)."""
    return {*map(type, values)} <= _NUMBER_TYPES


def _parse_object(doc, parse):
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return parse(doc)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path``, the same bytes as ``dumps(doc)``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextmanager
def reading(where):
    """Scope of a step on the input ``where`` (a file, or a JSON Lines row as
    ``path:line``); faults as in the module docstring, naming ``where``."""
    try:
        yield
    except FAULTS as exc:
        raise _fault(where, exc) from None


def read_json(path, parse):
    """``parse`` applied to the JSON object in ``path``; faults as in the module
    docstring, naming the file."""
    with _open(path) as fh, reading(path):
        return _parse_object(json.loads(fh.read().decode("utf-8")), parse)


def read_csv(path, parse):
    """``parse`` applied to a ``csv.reader`` over the UTF-8 text of ``path``;
    faults as in the module docstring, naming the file."""
    with _open(path) as fh, reading(path):
        # newline="" splits lines as csv expects and leaves quoted newlines whole
        return parse(csv.reader(io.StringIO(fh.read().decode("utf-8"), newline="")))


def read_jsonl(path, parse) -> list:
    """``parse`` applied to each row of a JSON Lines file, blank lines skipped;
    faults as in the module docstring, naming the file and line."""
    rows = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                with reading(f"{path}:{lineno}"):
                    rows.append(_parse_object(json.loads(line.decode("utf-8")), parse))
    return rows

