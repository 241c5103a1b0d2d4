"""Persistent key-value caches backed by append-only JSON Lines files.

Two concrete caches share one implementation: coalition-utility entries
({"coalition": <hex>, "u": <real>}) and raw model responses
({"digest": <hex>, "response": <text>}). Keys are never overwritten with a
different value; concurrent writers race under first-writer-wins. A failed
append degrades the cache to memory-only with a single warning.

Loading warns about and skips a line that is not UTF-8, is not JSON, lacks a
field, or holds a key or value of the wrong type; ``inspect_file`` counts
exactly those lines as malformed. A file that exists but cannot be read is a
``ConsistencyError`` naming it. A last line without its newline (a torn
append) is newline-terminated before the next append, so the new entry starts
on its own line. ``persist`` writes a temporary file beside the target and
renames it into place, so a failed rewrite leaves the old file whole.

A file-backed cache keeps one append handle, opened at the first ``put``. A
``put`` flushes its line at once, so a crash loses at most the line being
written. Inside an ``appending()`` block a ``put`` flushes only when
``FLUSH_S`` seconds have passed since the last flush, and leaving the block
flushes, so a crash loses at most the lines put within ``FLUSH_S`` of each
other. ``close`` (or leaving a ``with`` block) releases the handle;
``persist`` closes it first, so a later ``put`` reopens and appends to the
rewritten file.

``cached_utility`` wraps a mask-level batch oracle in a utility cache and
returns a batch. Its cost model: one hex key per mask (``hex_keys``), one
dict lookup per key, one inner batch call for the distinct misses in
first-appearance order, and one buffered line per miss, flushed at the end of
the batch (and every ``FLUSH_S`` seconds within it) instead of per line.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import warnings
from typing import Optional, Sequence

from .coalition import hex_keys
from .errors import ConsistencyError, UtilityOracleError
from .game import BatchFn
from .jsonio import _open

# seconds an ``appending()`` block may hold written lines before flushing them
FLUSH_S = 0.1


# json.loads without its wrapper and whitespace scans, which on a short
# stripped line cost about twice the parse; ``end`` exposes trailing data
_decode = json.JSONDecoder().raw_decode
# the C string escaper behind json.dumps (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


class _JsonlCache:
    key_field = "key"
    value_field = "value"

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.entries: dict = {}
        self._lock = threading.Lock()
        self._fh = None
        self._write_failed = False
        self._torn_tail = False
        self._appending = 0             # open ``appending()`` blocks
        self._flush_due = 0.0

    @classmethod
    def _parse(cls, line: bytes):
        """(key, value) of a well-formed stripped cache line; None otherwise."""
        try:
            text = line.decode("utf-8")
            row, end = _decode(text)
            key, value = row[cls.key_field], row[cls.value_field]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            return None
        if end == len(text) and isinstance(key, str) and cls._valid_value(value):
            return key, value
        return None

    @classmethod
    def load(cls, path: str):
        """Bind to ``path``, reading existing entries; a missing file is an empty cache."""
        cache = cls(path=path)
        if not os.path.exists(path):
            return cache
        with _open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                cache._torn_tail = not raw.endswith(b"\n")
                line = raw.strip()
                if not line:
                    continue
                parsed = cls._parse(line)
                if parsed is None:
                    warnings.warn(f"{path}:{lineno}: skipping malformed cache line")
                    continue
                cache.entries.setdefault(*parsed)
        return cache

    def get(self, key):
        with self._lock:
            return self.entries.get(key)

    def put(self, key, value) -> None:
        """Store and append ``value`` unless ``key`` is taken; a key or value
        that ``load`` would skip is a ``ConsistencyError``, stored nowhere."""
        if not isinstance(key, str):
            raise ConsistencyError(f"cannot cache under {key!r}: a key must be a str")
        if not self._valid_value(value):
            raise ConsistencyError(
                f"cannot cache {value!r} as {self.value_field!r} for {key!r}"
            )
        with self._lock:
            if key in self.entries:
                return
            self.entries[key] = value
            self._append(key, value)

    def _line(self, key: str, value) -> str:
        """``json.dumps(row, sort_keys=True)`` and a newline, for the row
        ``{key_field: key, value_field: value}``: both kinds name the key
        field first in sorted order, and ``_dump`` writes the value as json
        does, raising ``TypeError`` for a value json cannot write."""
        return f'{{"{self.key_field}": {_quote(key)}, "{self.value_field}": {self._dump(value)}}}\n'

    def _append(self, key: str, value) -> None:
        if self.path is None or self._write_failed:
            return
        line = self._line(key, value)
        try:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write("\n" + line if self._torn_tail else line)
            self._torn_tail = False
            if not self._appending or time.monotonic() >= self._flush_due:
                self._flush()
        except OSError as exc:
            self._give_up(exc)

    def _flush(self) -> None:
        self._fh.flush()
        self._flush_due = time.monotonic() + FLUSH_S

    def _give_up(self, exc: OSError) -> None:
        self._write_failed = True
        self._close_handle()
        warnings.warn(f"cache file {self.path} is not writable ({exc}); continuing in memory")

    @contextlib.contextmanager
    def appending(self):
        """A block whose ``put`` calls leave their lines in the append
        buffer, flushed by the first ``put`` ``FLUSH_S`` seconds after the
        last flush and when the block ends."""
        with self._lock:
            self._appending += 1
            self._flush_due = time.monotonic() + FLUSH_S
        try:
            yield
        finally:
            with self._lock:
                self._appending -= 1
                if self._fh is not None:
                    try:
                        self._flush()
                    except OSError as exc:
                        self._give_up(exc)

    def _close_handle(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            with contextlib.suppress(OSError):  # a failed flush was already reported
                fh.close()

    def close(self) -> None:
        """Release the append handle; a later ``put`` opens it again."""
        with self._lock:
            self._close_handle()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def persist(self) -> None:
        """Rewrite all entries (insertion order) to the bound file."""
        if self.path is None:
            raise ValueError("no path bound to this cache")
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with self._lock:
            self._close_handle()  # the rename below replaces the file it appends to
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for key, value in self.entries.items():
                        fh.write(self._line(key, value))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
                self._torn_tail = False  # every rewritten line ends in a newline
            finally:
                with contextlib.suppress(OSError):  # gone already once replaced
                    os.remove(tmp)

    def __len__(self) -> int:
        return len(self.entries)


class UtilityCache(_JsonlCache):
    key_field = "coalition"
    value_field = "u"

    @staticmethod
    def _valid_value(value) -> bool:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))

    @staticmethod
    def _dump(value) -> str:
        # the base-class repr, as json writes it: repr(np.float64(0.5)) is
        # "np.float64(0.5)"; int.__repr__ raises TypeError on a non-int
        return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


class ResponseCache(_JsonlCache):
    key_field = "digest"
    value_field = "response"

    @staticmethod
    def _valid_value(value) -> bool:
        return isinstance(value, str)

    _dump = staticmethod(_quote)


_END = object()


def cached_utility(cache: UtilityCache, inner_batch: BatchFn) -> BatchFn:
    """Memoize a deterministic mask-level batch oracle through the cache.

    The result is a batch that serves the hits and asks ``inner_batch`` for
    the distinct misses in one call, storing each new utility as it arrives,
    so a failure leaves the cache holding exactly the utilities computed
    before it."""

    def batch(masks: Sequence[int], n: int):
        keys = hex_keys(masks, n)
        entries = cache.entries
        # key -> mask of each miss, in first-appearance order
        misses = {key: mask for key, mask in zip(keys, masks) if key not in entries}
        fresh = iter(inner_batch(list(misses.values()), n) if misses else ())
        with cache.appending():
            for key in keys:
                if key in misses:
                    del misses[key]
                    value = next(fresh, _END)
                    if value is _END:
                        raise UtilityOracleError("inner batch oracle ended early")
                    cache.put(key, value)
                # the first writer's value, if another got in first
                yield entries[key]

    return batch


def inspect_file(path: str) -> dict:
    """Line and entry counts plus the detected cache kind, for the CLI.

    A line counts as malformed exactly when ``load`` would skip it.
    """
    kinds = {"utility": UtilityCache, "response": ResponseCache}
    lines = 0
    malformed = 0
    keys: set = set()
    kind = None
    with _open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            lines += 1
            for name, cls in kinds.items():
                parsed = cls._parse(line)
                if parsed is not None:
                    kind = kind or name
                    keys.add(parsed[0])
                    break
            else:
                malformed += 1
    return {"path": str(path), "kind": kind, "lines": lines, "entries": len(keys),
            "duplicates": lines - malformed - len(keys), "malformed": malformed}


def compact_file(path: str) -> dict:
    """Drop duplicate keys (first occurrence wins) and rewrite in place."""
    info = inspect_file(path)
    if info["kind"] is None:
        raise ConsistencyError(f"{path} is not a recognized cache file")
    cls = UtilityCache if info["kind"] == "utility" else ResponseCache
    cache = cls.load(path)
    cache.persist()
    info["entries_after"] = len(cache)
    return info
