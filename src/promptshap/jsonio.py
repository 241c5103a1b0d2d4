"""Canonical JSON and JSON Lines helpers.

Every JSON document the package writes goes through ``dumps`` so that
identical runs produce byte-identical files (sorted keys, fixed indentation,
trailing newline, shortest-round-trip float rendering).
"""

from __future__ import annotations

import json

from .errors import ConsistencyError


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_jsonl(path, parse) -> list:
    """``parse`` applied to each row of a JSON Lines file, blank lines skipped.
    Every row must be a JSON object; a malformed line, and any KeyError,
    TypeError or ValueError that ``parse`` raises, becomes a
    ``ConsistencyError`` naming the file and line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError(f"expected a JSON object, got {type(row).__name__}")
                rows.append(parse(row))
            except json.JSONDecodeError as exc:
                raise ConsistencyError(f"{path}:{lineno}: invalid JSON line: {exc}") from None
            except KeyError as exc:
                raise ConsistencyError(f"{path}:{lineno}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ConsistencyError(f"{path}:{lineno}: {exc}") from None
    return rows


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
