"""Canonical JSON and JSON Lines helpers.

Every JSON document the package writes uses one set of encoder settings, so
identical runs produce byte-identical output (sorted keys, fixed indentation,
trailing newline, shortest-round-trip float rendering): ``write_json`` for
files, ``dumps`` for stdout and stderr. ``write_json`` streams the encoder's
chunks into the file, because with indentation the encoder is the pure-Python
one and joining its chunks for a model file holds hundreds of thousands of
small strings at once.

Every JSON input file is read through ``read_json`` or ``read_jsonl``, so a
bad input fails the same way everywhere: a file that cannot be opened, text
that is not UTF-8, invalid JSON, a document or row that is not an object, and
any KeyError, TypeError or ValueError from the caller's parser become a
``ConsistencyError`` naming the file, and for JSON Lines also the line.
"""

from __future__ import annotations

import json

from .errors import ConsistencyError

# what a parser or the decoder raises on a bad input; ConsistencyError is none of them
_FAULTS = (KeyError, TypeError, ValueError)


def _fault(where, exc: Exception) -> ConsistencyError:
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
        raise ConsistencyError(f"cannot read input file {path}: {exc.strerror}") from None


def _parse_object(doc, parse):
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return parse(doc)


_CANONICAL = {"sort_keys": True, "indent": 2}


def dumps(doc) -> str:
    return json.dumps(doc, **_CANONICAL) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path``, the same bytes as ``dumps(doc)``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **_CANONICAL)
        fh.write("\n")


def read_json(path, parse):
    """``parse`` applied to the JSON object in ``path``; faults as in the module
    docstring, naming the file."""
    with _open(path) as fh:
        try:
            return _parse_object(json.loads(fh.read().decode("utf-8")), parse)
        except _FAULTS as exc:
            raise _fault(path, exc) from None


def read_jsonl(path, parse) -> list:
    """``parse`` applied to each row of a JSON Lines file, blank lines skipped;
    faults as in the module docstring, naming the file and line."""
    rows = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(_parse_object(json.loads(line.decode("utf-8")), parse))
            except _FAULTS as exc:
                raise _fault(f"{path}:{lineno}", exc) from None
    return rows

