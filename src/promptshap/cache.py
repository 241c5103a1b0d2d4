"""Persistent key-value caches backed by append-only JSON Lines files.

Two concrete caches share one implementation: coalition-utility entries
({"coalition": <hex>, "u": <real>}) and raw model responses
({"digest": <hex>, "response": <text>}). Keys are never overwritten with a
different value; concurrent writers race under first-writer-wins. A failed
append degrades the cache to memory-only with a single warning.

One reader, ``_read``, gives a file's entries in file order (a repeated key
keeps its first value), its count of non-blank lines, its malformed lines'
numbers and whether its last line is torn. A line is malformed when it is
not UTF-8, is not JSON, lacks a field, or holds a key or value of the wrong
type (a utility is a finite ``int`` or ``float``: ``game.finite_numbers``).
When the file ends in a newline, each line starts with ``{`` and ends with
``}``, and no other brace appears (so no line boundary can fall inside a row
or a string), it parses the lines in 16 KiB blocks, each one ``json.loads``
of its lines joined into an array, and type-checks all rows in one pass; any
other file, or a row that fails the checks, is read line by line. ``load``
warns about each malformed line. ``inspect_file`` counts with the ``_read``
of the kind of the first line either kind reads, so a line counts as
malformed exactly when ``load`` skips it. A file that exists but cannot be
read is a ``ConsistencyError`` naming it. A torn last line is
newline-terminated before the next append. ``persist`` writes a temporary
file in one call and renames it into place, so a failed rewrite leaves the
old file whole.

A file-backed cache keeps one append handle, opened at the first store.
Every store is a ``put_many(keys, values)`` (``put`` is its one-entry
case): it checks the chunk in one pass, takes the lock once, stores the
values whose keys are not taken and appends their lines in one ``write``
and flush before it returns, so a crash loses at most the lines being
written. ``close`` (or leaving a ``with`` block) releases the handle;
``persist`` does the same first, so a later store reopens and appends to
the rewritten file.

Both caches memoize through one path, ``memoized(cache, keys, compute)``:
one dict lookup per key and one ``compute`` call for the distinct misses in
first-appearance order. Its pending list is the only buffer between a batch
and the file: the misses' values are stored a chunk at a time, one
``put_many`` once 512 are pending or ``FLUSH_S`` seconds have passed since
the last store, and each key's value is yielded once its chunk is stored.
So a crash loses only the values that arrived within ``FLUSH_S`` of the last
store, and a failure or an interrupt stores the values that arrived before
it. Both ``cached_utility``'s batch and the live client's requests go
through it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import warnings
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coalition import check_masks, hex_keys
from .errors import ConsistencyError, UtilityOracleError
from .game import BatchFn, _finite_real, finite_numbers, finite_utility
from .jsonio import FAULTS, _open, all_numbers

# seconds after its last store at which ``memoized`` stores the values
# pending, whatever their number
FLUSH_S = 0.1


# json.loads without its wrapper and whitespace scans, which on a short
# stripped line cost about twice the parse; ``end`` exposes trailing data
_decode = json.JSONDecoder().raw_decode
# the C string escaper behind json.dumps (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii
_STR = frozenset({str})
# bytes of whole lines per ``json.loads`` in ``load``: a few hundred rows, so
# the row dicts alive at once stay small however long the file
_BLOCK = 1 << 14


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

    @classmethod
    def _parse(cls, line: bytes):
        """(key, value) of a well-formed stripped cache line; None otherwise."""
        try:
            text = line.decode("utf-8")
            row, end = _decode(text)
            key, value = row[cls.key_field], row[cls.value_field]
        except FAULTS:
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
            cache.entries, _, malformed, cache._torn_tail, _ = cls._read(fh.read())
        for lineno in malformed:
            warnings.warn(f"{path}:{lineno}: skipping malformed cache line")
        return cache

    @classmethod
    def _parse_block(cls, body: bytes) -> Optional[dict]:
        """The entries of ``body`` parsed a block of lines per ``json.loads``;
        None unless every line is one object and every row is well-formed.

        Each line starting with ``{`` and ending with ``}``, with no other
        brace in the file, pins every row to its line: a boundary inside a
        string would put a raw newline in it, which the parser rejects, and
        the line's opening brace can only close at its end."""
        lines = body.count(b"\n")
        if not (body.startswith(b"{") and body.endswith(b"}\n")
                and body.count(b"}\n{") == lines - 1
                and body.count(b"{") == lines == body.count(b"}")):
            return None
        keys: list = []
        values: list = []
        start = 0
        try:
            while start < len(body):
                end = body.find(b"}\n{", start + _BLOCK)
                end = len(body) if end < 0 else end + 2
                block = body[start:end - 1].decode("utf-8").replace("\n", ",\n")
                rows = json.loads(f"[{block}]")
                keys += [row[cls.key_field] for row in rows]
                values += [row[cls.value_field] for row in rows]
                start = end
            if not (len(keys) == lines and {*map(type, keys)} <= _STR
                    and cls._all_valid(values)):
                return None
        except FAULTS:
            return None
        entries = dict(zip(keys, values))
        if len(entries) < lines:    # a repeated key: the first line's value wins
            entries = {}
            for key, value in zip(keys, values):
                entries.setdefault(key, value)
        return entries

    @classmethod
    def _read(cls, body: bytes) -> tuple:
        """(entries, non-blank lines, malformed line numbers, torn tail, line
        of the first entry or None) of ``body``: ``_parse_block``'s entries
        when it is well-formed, else each line's ``_parse``."""
        entries = cls._parse_block(body)
        if entries is not None:
            return entries, body.count(b"\n"), [], False, 1
        entries, malformed, first = {}, [], None
        lines = body.split(b"\n")
        numbered = [(lineno, line) for lineno, raw in enumerate(lines, start=1)
                    if (line := raw.strip())]
        for lineno, line in numbered:
            parsed = cls._parse(line)
            if parsed is None:
                malformed.append(lineno)
                continue
            entries.setdefault(*parsed)
            first = first or lineno
        return entries, len(numbered), malformed, lines[-1] != b"", first

    def get(self, key):
        with self._lock:
            return self.entries.get(key)

    def put(self, key, value) -> None:
        """``put_many`` of one key and its value."""
        self.put_many((key,), (value,))

    def put_many(self, keys: Sequence, values: Sequence) -> None:
        """Store each value under its key and append its line, unless the key
        is taken (the first writer wins, within the call too). Keys and values
        of different lengths, or a key or value that ``load`` would skip, are
        a ``ConsistencyError``: the lengths before anything is stored, a
        refused entry naming it, with the values before it stored. The chunk
        is checked in one pass, the rule ``load`` applies (``_all_valid``),
        and value by value only when that pass fails."""
        if len(keys) != len(values):
            raise ConsistencyError(
                f"cannot cache {len(values)} values under {len(keys)} keys")
        if not ({*map(type, keys)} <= _STR and self._all_valid(values)):
            for at, (key, value) in enumerate(zip(keys, values)):
                if not isinstance(key, str):
                    refused = f"cannot cache under {key!r}: a key must be a str"
                elif not self._valid_value(value):
                    refused = f"cannot cache {value!r} as {self.value_field!r} for {key!r}"
                else:
                    continue
                self._store(keys[:at], values[:at])
                raise ConsistencyError(refused)
        self._store(keys, values)

    def _store(self, keys: Sequence, values: Sequence) -> None:
        """``put_many`` of a checked chunk: under the lock, store the new
        values and append their lines in one write, then flush; a failed
        write degrades the cache to memory-only with one warning."""
        entries = self.entries
        with self._lock:
            new_keys, new_values = [], []
            for key, value in zip(keys, values):
                if key not in entries:
                    entries[key] = value
                    new_keys.append(key)
                    new_values.append(value)
            if not new_keys or self.path is None or self._write_failed:
                return
            data = self._lines(new_keys, new_values).encode()
            try:
                if self._fh is None:
                    self._fh = open(self.path, "ab")
                self._fh.write(b"\n" + data if self._torn_tail else data)
                self._torn_tail = False
                self._fh.flush()
            except OSError as exc:
                self._write_failed = True
                self._close_handle()
                warnings.warn(f"cache file {self.path} is not writable ({exc}); continuing in memory")

    def _lines(self, keys: Iterable[str], values: Iterable) -> str:
        """``json.dumps(row, sort_keys=True)`` and a newline for each row
        ``{key_field: key, value_field: value}``, joined: both kinds name the
        key field first in sorted order, and ``_texts`` writes the values as
        json does, raising ``TypeError`` for a value json cannot write."""
        head, middle = f'{{"{self.key_field}": ', f', "{self.value_field}": '
        return "".join([f"{head}{key}{middle}{text}}}\n"
                        for key, text in zip(map(_quote, keys), self._texts(values))])

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
                    fh.write(self._lines(self.entries, self.entries.values()))
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
        return isinstance(value, (int, float)) and _finite_real(value)

    _all_valid = staticmethod(finite_numbers)

    @staticmethod
    def _texts(values: Iterable) -> Iterable:
        # an exact int or float formats as its repr, the text json writes; a
        # subclass is written by its base class's repr, as json does
        # (repr(np.float64(0.5)) is "np.float64(0.5)"), and int.__repr__
        # raises TypeError on a non-int
        if all_numbers(values):
            return values
        return [float.__repr__(value) if isinstance(value, float) else int.__repr__(value)
                for value in values]


class ResponseCache(_JsonlCache):
    key_field = "digest"
    value_field = "response"

    @staticmethod
    def _valid_value(value) -> bool:
        return isinstance(value, str)

    @staticmethod
    def _all_valid(values: Sequence) -> bool:
        return {*map(type, values)} <= _STR

    @staticmethod
    def _texts(values: Iterable) -> Iterable:
        return map(_quote, values)


# misses ``memoized`` stores at once when they arrive within ``FLUSH_S``
_CHUNK = 512
_END = object()


def memoized(cache: _JsonlCache, keys: Sequence[str],
             compute: Callable[[list], Iterable]) -> Iterator:
    """The cached value of each of ``keys``, in order. One ``compute(at)``
    call, made only if a key misses, gets the position of each distinct miss's
    first appearance in ``keys``, in order, and yields a value per miss.

    The values arrive in a pending list, the only buffer between ``compute``
    and the file, which goes to ``put_many`` once ``_CHUNK`` values are
    pending or a value arrives ``FLUSH_S`` seconds or more after the last
    store; so a crash loses only the values that arrived within ``FLUSH_S``
    of the last store. Each key's value is yielded once it is stored: the
    cache's value, so the first writer wins. A failure of ``compute``, or
    fewer or more values than misses (a ``UtilityOracleError``), stores the
    values before it, yields every key they cover, then raises; an interrupt
    (a ``BaseException`` such as ``KeyboardInterrupt``) stores them and
    raises without yielding."""
    entries = cache.entries
    misses: dict = {}
    for at, key in enumerate(keys):
        if key not in entries:
            misses.setdefault(key, at)
    # the keys before ends[i] have their values once the first i misses are stored
    ends = [*misses.values(), len(keys)]
    misses = list(misses)
    pending: list = []
    stored = done = 0
    due = time.monotonic() + FLUSH_S

    def store() -> list:
        """Store the pending values; the values of the keys they cover, to yield."""
        nonlocal stored, done, due
        chunk = pending[:]
        pending.clear()
        cache.put_many(misses[stored:stored + len(chunk)], chunk)
        due = time.monotonic() + FLUSH_S
        stored += len(chunk)
        covered, done = keys[done:ends[stored]], ends[stored]
        return [entries[key] for key in covered]

    try:
        values = iter(compute(ends[:-1]) if misses else ())
        for value in islice(values, len(misses)):
            pending.append(value)
            if len(pending) == _CHUNK or time.monotonic() >= due:
                yield from store()
        if stored + len(pending) < len(misses):
            raise UtilityOracleError("inner batch oracle ended early")
        if next(values, _END) is not _END:
            raise UtilityOracleError(
                "inner batch oracle gave more values than it was asked for")
    except Exception:
        yield from store()
        raise
    except BaseException:
        store()
        raise
    yield from store()


def cached_utility(cache: UtilityCache, inner_batch: BatchFn) -> BatchFn:
    """Memoize a deterministic mask-level batch oracle through the cache: a
    batch asking ``inner_batch`` once for the distinct misses (``memoized``)
    and storing each value as ``finite_utility`` gives it, so an unfit one
    fails as it does without a cache. The first batch over each player count
    first runs ``inner_batch([], n)``, so a library oracle refuses a count
    other than its own before any lookup, as it does without a cache; a bad
    mask fails ``check_masks`` before any lookup too."""
    counts: set = set()     # the player counts the inner batch has taken

    def batch(masks: Sequence[int], n: int):
        def compute(at: list):
            asked = [masks[i] for i in at]
            values = iter(inner_batch(asked, n))
            for mask, value in zip(asked, values):
                # a finite float is kept as it is, without a call
                yield value if type(value) is float and math.isfinite(value) else \
                    finite_utility(value, mask, n)
            yield from values       # past the misses: ``memoized`` refuses it

        if n not in counts:
            for _ in inner_batch([], n):
                pass
            counts.add(n)
        check_masks(masks, n)
        return memoized(cache, hex_keys(masks, n), compute)

    return batch


_KINDS = {"utility": UtilityCache, "response": ResponseCache}


def inspect_file(path: str) -> dict:
    """Line and entry counts plus the detected cache kind, for the CLI: the
    kind of the first line either kind reads, counted by its ``load`` reading,
    so a line counts as malformed exactly when ``load`` would skip it."""
    with _open(path) as fh:
        body = fh.read()
    reads = {}
    for name, cls in _KINDS.items():
        _, _, malformed, _, first = reads[name] = cls._read(body)
        if first and not malformed:
            break       # every non-blank line is of this kind
    # the kind whose first entry comes first; ``min`` keeps utility on a tie
    kind = min(reads, key=lambda name: reads[name][4] or math.inf)
    entries, lines, malformed, _, first = reads[kind]
    return {"path": str(path), "kind": kind if first else None, "lines": lines,
            "entries": len(entries), "duplicates": lines - len(malformed) - len(entries),
            "malformed": len(malformed)}


def compact_file(path: str) -> dict:
    """Drop duplicate keys (first occurrence wins) and rewrite in place."""
    info = inspect_file(path)
    if info["kind"] is None:
        raise ConsistencyError(f"{path} is not a recognized cache file")
    cache = _KINDS[info["kind"]].load(path)
    cache.persist()
    info["entries_after"] = len(cache)
    return info
