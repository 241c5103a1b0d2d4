import gc
import json
import math
import os
import re
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap import cache as cache_module, jsonio
from promptshap.cache import (
    ResponseCache,
    UtilityCache,
    cached_utility,
    compact_file,
    inspect_file,
    memoized,
)
from promptshap.ensemble import Mode, PredictionMatrix, Rule, ValidationSet, matrix_utility
from promptshap.errors import (ConsistencyError, PreconditionError, PromptShapError,
                               UtilityOracleError)
from promptshap.game import GameSpec, loo_values, run_batch, shapley_exact, shapley_montecarlo
from promptshap.selection import rank_add_curve

from conftest import ReferenceSplitMix64, hex_key, utility_of


def test_put_get_round_trip(tmp_path):
    with UtilityCache(tmp_path / "u.jsonl") as cache:
        cache.put("05", 0.5)
        assert cache.get("05") == 0.5
        assert cache.entries == {"05": 0.5}
        assert len(cache) == 1


def test_first_writer_wins_in_memory(tmp_path):
    with UtilityCache(tmp_path / "u.jsonl") as cache:
        cache.put("05", 0.5)
        cache.put("05", 0.9)
        assert cache.get("05") == 0.5


def test_first_writer_wins_on_disk(tmp_path):
    path = tmp_path / "u.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"coalition": "05", "u": 0.5}) + "\n")
        fh.write(json.dumps({"coalition": "05", "u": 0.9}) + "\n")
    cache = UtilityCache.load(path)
    assert cache.get("05") == 0.5


def test_load_missing_path_gives_empty_bound_cache(tmp_path):
    path = tmp_path / "absent.jsonl"
    with UtilityCache.load(path) as cache:
        assert len(cache) == 0
        cache.put("01", 1.0)
    assert UtilityCache.load(path).get("01") == 1.0


def test_malformed_line_warns_and_is_skipped(tmp_path):
    path = tmp_path / "u.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"coalition": "05", "u": 0.5}) + "\n")
        fh.write("{not json\n")
        fh.write(json.dumps({"coalition": "03", "u": 1.0}) + "\n")
    with pytest.warns(UserWarning):
        cache = UtilityCache.load(path)
    assert len(cache) == 2
    assert cache.get("03") == 1.0


def test_undecodable_line_warns_and_is_skipped(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_bytes(b'{"coalition": "05", "u": 0.5}\n'
                     b'{"coalition": "\xff", "u": 1.0}\n'
                     b'{"coalition": "03", "u": 1.0}\n')
    with pytest.warns(UserWarning, match=r"u\.jsonl:2: skipping malformed cache line"):
        cache = UtilityCache.load(path)
    assert cache.entries == {"05": 0.5, "03": 1.0}


def test_undecodable_last_line_still_gets_its_newline(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_bytes(b'{"coalition": "05", "u": 0.5}\n\xfe\xff')
    with pytest.warns(UserWarning):
        cache = UtilityCache.load(path)
    with cache:
        cache.put("03", 1.0)
    assert path.read_bytes().endswith(b'\xfe\xff\n{"coalition": "03", "u": 1.0}\n')


def test_load_of_an_unreadable_path_names_it(tmp_path):
    with pytest.raises(ConsistencyError, match=re.escape(str(tmp_path))):
        UtilityCache.load(tmp_path)


def test_torn_tail_does_not_swallow_the_next_entry(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text(json.dumps({"coalition": "01", "u": 0.5}) + "\n"
                    + '{"coalition": "02", "u": 0.')
    with pytest.warns(UserWarning):
        cache = UtilityCache.load(path)
    with cache:
        cache.put("03", 0.25)
    with pytest.warns(UserWarning):
        reloaded = UtilityCache.load(path)
    assert reloaded.entries == {"01": 0.5, "03": 0.25}


@pytest.mark.parametrize("cls", [UtilityCache, ResponseCache])
def test_persist_needs_a_bound_path(cls):
    with pytest.raises(ValueError, match="no path bound to this cache"):
        cls().persist()


def test_persist_clears_the_torn_tail(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text(json.dumps({"coalition": "01", "u": 0.5}) + "\n"
                    + '{"coalition": "02", "u": 0.')
    with pytest.warns(UserWarning):
        cache = UtilityCache.load(path)
    with cache:
        cache.persist()
        cache.put("03", 0.25)
    assert path.read_text() == "".join(
        json.dumps(row, sort_keys=True) + "\n"
        for row in ({"coalition": "01", "u": 0.5}, {"coalition": "03", "u": 0.25})
    )


def test_complete_last_line_without_newline_is_kept(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text(json.dumps({"coalition": "01", "u": 0.5}))
    with UtilityCache.load(path) as cache:
        cache.put("03", 0.25)
    assert UtilityCache.load(path).entries == {"01": 0.5, "03": 0.25}


@pytest.mark.parametrize("u", ['"oops"', "true", "null", "NaN", "Infinity", "[1]"])
def test_non_numeric_utility_is_skipped(tmp_path, u):
    path = tmp_path / "u.jsonl"
    path.write_text('{"coalition": "01", "u": %s}\n{"coalition": "02", "u": 1}\n' % u)
    with pytest.warns(UserWarning):
        cache = UtilityCache.load(path)
    assert cache.entries == {"02": 1}
    with cache:
        wrapped = cached_utility(cache, lambda masks, n: [0.75] * len(masks))
        assert utility_of(wrapped, 0b1, 2) == 0.75


@pytest.mark.parametrize("row", [{"digest": "ab", "response": 5},
                                 {"digest": "ab", "response": None},
                                 {"digest": 7, "response": "x"}])
def test_response_cache_skips_wrong_types(tmp_path, row):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({"digest": "cd", "response": "y"}) + "\n")
    with pytest.warns(UserWarning):
        cache = ResponseCache.load(path)
    assert cache.entries == {"cd": "y"}


BAD_UTILITIES = [math.nan, math.inf, -math.inf, True, "0.5"]


@pytest.mark.parametrize("bound", [True, False], ids=["file", "memory"])
@pytest.mark.parametrize("u", BAD_UTILITIES, ids=repr)
def test_put_refuses_a_utility_load_would_skip(tmp_path, bound, u):
    path = tmp_path / "u.jsonl"
    original = json.dumps({"coalition": "05", "u": 0.5}) + "\n"
    path.write_text(original)
    with (UtilityCache.load(path) if bound else UtilityCache()) as cache:
        before = dict(cache.entries)
        with pytest.raises(ConsistencyError):
            cache.put("01", u)
        assert cache.entries == before
        assert cache.get("01") is None
        cache.put("02", 0.25)               # the cache still works afterwards
    expected = original + ('{"coalition": "02", "u": 0.25}\n' if bound else "")
    assert path.read_text() == expected


TOP = sys.float_info.max


# the sum of the first fits a float, so one pass checks the values; two
# copies of the top overflow it, so each value is also checked alone
@pytest.mark.parametrize("edges", [[TOP, -TOP, int(TOP)], [TOP, TOP, -TOP, int(TOP)]],
                         ids=["one-pass", "value-by-value"])
def test_utilities_at_the_edges_of_the_float_range_are_stored_and_reloaded(tmp_path, edges):
    path = tmp_path / "u.jsonl"
    keys = [f"{i:02x}" for i in range(len(edges))]
    with UtilityCache(path) as cache:
        cache.put_many(keys, edges)
        with pytest.raises(ConsistencyError):
            cache.put("ff", int(TOP) + 1)   # as a float it would round to the top
        with pytest.raises(ConsistencyError):
            cache.put_many(["fe", "ff"], [math.inf, -math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no line is skipped
        loaded = UtilityCache.load(path).entries
    assert loaded == dict(zip(keys, edges))
    assert list(map(type, loaded.values())) == list(map(type, edges))


@pytest.mark.parametrize("response", [5, None, b"x"], ids=repr)
def test_response_cache_put_refuses_a_non_string(tmp_path, response):
    path = tmp_path / "r.jsonl"
    with ResponseCache(path) as cache:
        with pytest.raises(ConsistencyError):
            cache.put("ab", response)
        assert cache.entries == {}
    assert not path.exists()


def test_put_many_keeps_the_first_writer_within_and_across_calls(tmp_path):
    path = tmp_path / "u.jsonl"
    with UtilityCache(path) as cache:
        cache.put_many(["01", "02", "01"], [0.5, 0.25, 0.75])
        cache.put_many(["02", "03"], [1.0, 0.125])
        assert cache.entries == {"01": 0.5, "02": 0.25, "03": 0.125}
    assert path.read_text() == ('{"coalition": "01", "u": 0.5}\n'
                                '{"coalition": "02", "u": 0.25}\n'
                                '{"coalition": "03", "u": 0.125}\n')


@pytest.mark.parametrize("cls, keys, values, refused", [
    (UtilityCache, ["01", "00", "02", "03"], [0.5, 0.25, True, 1.0], "cannot cache True as 'u' for '02'"),
    (UtilityCache, ["01", "00", "02", "03"], [0.5, 0.25, math.nan, 1.0], "cannot cache nan as 'u' for '02'"),
    (UtilityCache, ["01", "00", "02", "03"], [0.5, 0.25, 10**400, 1.0], "as 'u' for '02'"),
    (UtilityCache, ["01", "00", 2, "03"], [0.5, 0.25, 0.75, 1.0], "cannot cache under 2"),
    (ResponseCache, ["01", "00", "02", "03"], ["a", "b", 5, "d"], "cannot cache 5 as 'response' for '02'"),
], ids=["bool", "nan", "past-float-range", "int-key", "non-string-response"])
def test_put_many_refuses_a_value_and_keeps_the_ones_before_it(tmp_path, cls, keys, values, refused):
    path = tmp_path / "c.jsonl"
    with cls(path) as cache:
        with pytest.raises(ConsistencyError, match=re.escape(refused)):
            cache.put_many(keys, values)
        assert cache.entries == dict(zip(keys[:2], values[:2]))
        assert path.read_text() == lines_of(cls, zip(keys[:2], values[:2]))
    assert path.read_text() == lines_of(cls, zip(keys[:2], values[:2]))


@pytest.mark.parametrize("keys, values", [(["01", "02"], [0.5]), (["01"], [0.5, 0.25])],
                         ids=["more-keys", "more-values"])
def test_put_many_refuses_keys_and_values_of_different_lengths(tmp_path, keys, values):
    path = tmp_path / "u.jsonl"
    with UtilityCache(path) as cache:
        with pytest.raises(ConsistencyError, match=f"{len(values)} values under {len(keys)} keys"):
            cache.put_many(keys, values)
        assert cache.entries == {}
    assert not path.exists()


@pytest.mark.parametrize("bound", [True, False], ids=["file", "memory"])
@pytest.mark.parametrize("cls, value", [(UtilityCache, 0.5), (ResponseCache, "y")],
                         ids=["utility", "response"])
@pytest.mark.parametrize("key", [5, None, b"01", ("01",)], ids=repr)
def test_put_refuses_a_key_load_would_skip(tmp_path, bound, cls, value, key):
    path = tmp_path / "c.jsonl"
    with (cls(path) if bound else cls()) as cache:
        with pytest.raises(ConsistencyError):
            cache.put(key, value)
        assert cache.entries == {}
        cache.put("01", value)              # the cache still works afterwards
    if bound:
        assert path.read_text() == json.dumps({cls.key_field: "01", cls.value_field: value}) + "\n"


@pytest.mark.parametrize("bound", [True, False], ids=["file", "memory"])
@pytest.mark.parametrize("u", BAD_UTILITIES, ids=repr)
def test_engine_names_the_coalition_a_bad_utility_came_from(tmp_path, bound, u):
    path = tmp_path / "u.jsonl"

    def inner(masks, n):
        return [u if mask == 0b10 else mask.bit_count() / 2 for mask in masks]

    with pytest.raises(UtilityOracleError) as uncached:
        shapley_exact(GameSpec(n=2, batch=inner))
    with UtilityCache(path if bound else None) as cache:
        with pytest.raises(UtilityOracleError) as info:
            shapley_exact(GameSpec(n=2, batch=cached_utility(cache, inner)))
    # the same refusal with or without the cache
    assert str(info.value) == str(uncached.value) == \
        f"utility oracle gave {u!r} on coalition 02, not a finite real number"
    assert info.value.details == uncached.value.details == {"coalition": "02"}
    assert cache.entries == {"00": 0.0, "01": 0.5}
    if bound:
        assert path.read_text() == ('{"coalition": "00", "u": 0.0}\n'
                                    '{"coalition": "01", "u": 0.5}\n')


# every character but surrogates, which no UTF-8 file can hold, with the ones
# JSON escapes drawn often
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u2028\u00e9\U0001f600'),
                              st.characters(exclude_categories=("Cs",))))


class _Count(int):
    """An int subclass whose repr is not its JSON text."""

    def __repr__(self):
        return f"_Count({int(self)})"


FINITE_UTILITY = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(min_value=-(10**30), max_value=10**30),
                           st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                           st.integers(min_value=-(10**30), max_value=10**30).map(_Count))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(UtilityCache), st.dictionaries(JSON_TEXT, FINITE_UTILITY, max_size=4)),
    st.tuples(st.just(ResponseCache), st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=4)),
))
def test_lines_are_the_bytes_of_json_dumps(case):
    cls, entries = case
    rows = [{cls.key_field: key, cls.value_field: value} for key, value in entries.items()]
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()
    with tempfile.TemporaryDirectory() as tmp:
        appended = cls(os.path.join(tmp, "appended.jsonl"))
        with appended:
            for key, value in entries.items():
                appended.put(key, value)
        persisted = cls(os.path.join(tmp, "persisted.jsonl"))
        persisted.entries.update(entries)
        persisted.persist()
        for cache in (appended, persisted):
            written = b""
            if os.path.exists(cache.path):    # no put, no append handle, no file
                with open(cache.path, "rb") as fh:
                    written = fh.read()
            assert written == expected


@pytest.mark.parametrize("values", [
    [np.float64(0.5), np.float64(-1e-300)],
    [0.25, np.float64(0.5), 3, _Count(7)],
    [0.25, 1e16, -0.0, 3],
])
def test_a_chunk_of_utilities_is_written_as_json_writes_it(tmp_path, values):
    # float and int subclasses reach put_many's per-value check and are
    # written by their base class's repr, as json writes them
    path = tmp_path / "u.jsonl"
    keys = [f"{i:02x}" for i in range(len(values))]
    with UtilityCache(str(path)) as cache:
        cache.put_many(keys, values)
    assert path.read_text() == "".join(
        json.dumps({"coalition": key, "u": value}, sort_keys=True) + "\n"
        for key, value in zip(keys, values))
    assert "np." not in path.read_text() and "_Count" not in path.read_text()


def test_failed_persist_leaves_the_file_intact(tmp_path):
    path = tmp_path / "u.jsonl"
    original = json.dumps({"coalition": "05", "u": 0.5}) + "\n"
    path.write_text(original)
    cache = UtilityCache()
    cache.put("01", 0.25)
    cache.entries["02"] = object()          # past put's check; not JSON-serializable,
                                            # so persist fails mid-write
    cache.path = path                       # bound after the puts, so only persist writes
    with pytest.raises(TypeError):
        cache.persist()
    assert path.read_text() == original
    assert os.listdir(tmp_path) == ["u.jsonl"]


def test_append_degrades_to_memory_with_single_warning(tmp_path):
    path = tmp_path / "no" / "such" / "dir" / "u.jsonl"
    cache = UtilityCache(path)
    with pytest.warns(UserWarning):
        cache.put("05", 0.5)
    # second failure stays quiet and the value is still served from memory
    cache.put("03", 1.0)
    assert cache.get("05") == 0.5
    assert cache.get("03") == 1.0
    assert not path.exists()


def test_persist_then_load(tmp_path):
    cache = UtilityCache()
    cache.put("05", 0.5)
    cache.put("00", 0.0)
    path = tmp_path / "u.jsonl"
    cache.path = path                       # bound after the puts, so only persist writes
    cache.persist()
    loaded = UtilityCache.load(path)
    assert loaded.get("05") == 0.5
    assert loaded.get("00") == 0.0
    assert len(loaded) == 2


def test_response_cache_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    with ResponseCache(path) as cache:
        cache.put("deadbeef", "The answer is (C).")
    loaded = ResponseCache.load(path)
    assert loaded.get("deadbeef") == "The answer is (C)."


def test_cached_utility_memoizes():
    calls = []

    def inner(masks, n):
        calls.append(list(masks))
        return [mask.bit_count() / 10 for mask in masks]

    cache = UtilityCache()
    wrapped = cached_utility(cache, inner)
    for _ in range(3):
        assert utility_of(wrapped, 0b101, 4) == 0.2
    assert calls == [[], [0b101]]         # the player-count probe, then the one miss
    assert len(cache) == 1


def test_cached_utility_serves_preloaded_values():
    cache = UtilityCache()
    cache.put(hex_key(0b1, 3), 0.25)

    def inner(masks, n):
        assert not masks, "the inner batch must not run on a hit"
        return []

    wrapped = cached_utility(cache, inner)
    assert utility_of(wrapped, 0b1, 3) == 0.25


def test_cached_utility_serves_loaded_entries_without_the_oracle(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text(json.dumps({"coalition": "05", "u": 0.25}) + "\n")

    def inner(masks, n):
        assert not masks, "the inner batch must not run on a hit"
        return []

    wrapped = cached_utility(UtilityCache.load(path), inner)
    for _ in range(3):   # every call reads the cache
        assert utility_of(wrapped, 0b101, 3) == 0.25


def test_hex_key_width_keeps_player_counts_apart():
    calls = []

    def inner(masks, n):
        calls.append((list(masks), n))
        return [n / 100 for _ in masks]

    cache = UtilityCache()
    wrapped = cached_utility(cache, inner)
    assert utility_of(wrapped, 1, 3) == 0.03
    assert utility_of(wrapped, 1, 3) == 0.03     # a cache hit on key "01"
    assert utility_of(wrapped, 1, 9) == 0.09     # same mask, wider hex key "0100"
    assert utility_of(wrapped, 1, 9) == 0.09
    assert utility_of(wrapped, 1, 3) == 0.03
    assert calls == [([], 3), ([1], 3), ([], 9), ([1], 9)]   # one probe per count
    assert cache.entries == {"01": 0.03, "0100": 0.09}


def test_memo_keeps_the_first_writers_value():
    cache = UtilityCache()

    def inner(masks, n):
        for mask in masks:
            cache.put(hex_key(mask, n), 0.5)   # another writer gets in first
            yield 0.75

    wrapped = cached_utility(cache, inner)
    assert utility_of(wrapped, 1, 2) == 0.5
    assert utility_of(wrapped, 1, 2) == 0.5
    assert cache.get("01") == 0.5


def test_appended_line_is_visible_before_close(tmp_path):
    path = tmp_path / "u.jsonl"
    with UtilityCache.load(path) as cache:
        cache.put("01", 0.5)
        assert UtilityCache.load(path).entries == {"01": 0.5}
        cache.put("02", 0.25)
        assert UtilityCache.load(path).entries == {"01": 0.5, "02": 0.25}


def test_put_after_persist_reaches_the_new_file(tmp_path):
    path = tmp_path / "u.jsonl"
    with UtilityCache.load(path) as cache:
        cache.put("01", 0.5)
        cache.persist()
        cache.put("02", 0.25)
        assert UtilityCache.load(path).entries == {"01": 0.5, "02": 0.25}
    assert path.read_text().count("\n") == 2


def test_closing_releases_the_handle_and_a_put_reopens_it(tmp_path, monkeypatch):
    leaks = []
    monkeypatch.setattr(sys, "unraisablehook", leaks.append)
    path = tmp_path / "r.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        cache = ResponseCache.load(path)
        cache.put("aa", "x")
        cache.close()
        cache.put("bb", "y")
        cache.close()
        cache.close()   # closing twice is harmless
        del cache
        gc.collect()
    assert leaks == []
    assert ResponseCache.load(path).entries == {"aa": "x", "bb": "y"}


def test_inspect_file_counts(tmp_path):
    path = tmp_path / "u.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"coalition": "05", "u": 0.5}) + "\n")
        fh.write(json.dumps({"coalition": "05", "u": 0.9}) + "\n")
        fh.write("oops\n")
        fh.write(json.dumps({"coalition": "03", "u": 1.0}) + "\n")
    info = inspect_file(path)
    assert info["kind"] == "utility"
    assert info["lines"] == 4
    assert info["entries"] == 2
    assert info["duplicates"] == 1
    assert info["malformed"] == 1


def test_inspect_counts_what_load_skips_as_malformed(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"coalition": "01", "u": "oops"}\n{"coalition": [1], "u": 1}\n'
                    '{"coalition": "02", "u": 0.5}\n')
    info = inspect_file(path)
    assert (info["entries"], info["malformed"]) == (1, 2)
    with pytest.warns(UserWarning):
        assert compact_file(path)["entries_after"] == 1


@pytest.mark.parametrize("body, kind", [
    ('{"coalition": "02", "u": 0.5}\n{"digest": "ab", "response": "x"}\n', "utility"),
    ('{"digest": "ab", "response": "x"}\n\n{"coalition": "02", "u": 0.5}\n', "response"),
], ids=["utility-first", "response-first"])
def test_inspect_counts_a_line_of_the_other_kind_as_malformed(tmp_path, body, kind):
    # the kind is that of the first line either kind reads, and ``compact``
    # warns about and drops exactly the lines ``inspect`` counts as malformed
    path = tmp_path / "c.jsonl"
    path.write_text(body)
    info = inspect_file(path)
    assert (info["kind"], info["lines"], info["entries"], info["malformed"]) == (kind, 2, 1, 1)
    with pytest.warns(UserWarning, match="skipping malformed cache line") as caught:
        assert compact_file(path)["entries_after"] == info["entries"]
    assert len(caught) == info["malformed"]


def test_inspect_counts_an_undecodable_line_as_malformed(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_bytes(b'{"coalition": "05", "u": 0.5}\n\xc3\x28\n\n{"coalition": "03", "u": 1.0}\n')
    info = inspect_file(path)
    assert (info["lines"], info["entries"], info["malformed"]) == (3, 2, 1)
    with pytest.warns(UserWarning):
        assert compact_file(path)["entries_after"] == 2
    assert b"\xc3" not in path.read_bytes()


@pytest.mark.parametrize("op", [inspect_file, compact_file])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_path_is_a_consistency_error(tmp_path, op, kind):
    path = tmp_path / "cache"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ConsistencyError, match=re.escape(str(path))):
        op(path)


def test_compact_file_rewrites_first_wins(tmp_path):
    path = tmp_path / "u.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"coalition": "05", "u": 0.5}) + "\n")
        fh.write(json.dumps({"coalition": "05", "u": 0.9}) + "\n")
        fh.write(json.dumps({"coalition": "03", "u": 1.0}) + "\n")
    report = compact_file(path)
    assert report["entries"] == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert {row["coalition"]: row["u"] for row in lines} == {"05": 0.5, "03": 1.0}
    # compacting twice is a no-op
    again = compact_file(path)
    assert again["entries"] == 2


def test_compact_file_rejects_unrecognized_content(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps({"foo": 1}) + "\n")
    with pytest.raises(ConsistencyError):
        compact_file(path)


def test_inspect_file_recognizes_response_cache(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps({"digest": "ab", "response": "x"}) + "\n")
    info = inspect_file(path)
    assert info["kind"] == "response"
    assert info["entries"] == 1


# ---------------------------------------------------------------------------
# the block-parsing load against the line-by-line reading


def per_line_load(cls, path):
    """(entries, warnings, torn tail) of ``path`` read one line at a time,
    the reading ``load`` must match on every file."""
    entries, warned, torn = {}, [], False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            torn = not raw.endswith(b"\n")
            line = raw.strip()
            if not line:
                continue
            parsed = cls._parse(line)
            if parsed is None:
                warned.append(f"{path}:{lineno}: skipping malformed cache line")
                continue
            entries.setdefault(*parsed)
    return entries, warned, torn


# "@K" and "@V" stand for the kind's key and value fields and "@1" and "@2"
# for two valid values; each kind then lists values it refuses
KINDS = {
    "utility": (UtilityCache, {b"@1": b"0.5", b"@2": b"1"},
                {"nan": b"NaN", "inf": b"Infinity", "1e400": b"1e400", "true": b"true",
                 "string": b'"0.5"', "null": b"null", "huge-int": b"1" + b"0" * 400,
                 "too-many-digits": b"1" + b"0" * 5000}),
    "response": (ResponseCache, {b"@1": b'"x"', b"@2": b'"y \\u00e9\\n"'},
                 {"number": b"5", "null": b"null", "true": b"true", "list": b'["x"]',
                  "object": b"{}"}),
}
ROW1, ROW2 = b'{"@K": "01", "@V": @1}', b'{"@K": "02", "@V": @2}'
ADVERSARIAL = {
    "clean": ROW1 + b"\n" + ROW2 + b"\n",
    # the joined array holds two good rows, yet neither line is one object
    "split-object": b'{"@K": "01", "@V": @1}, {"@K": "02"\n"@V": @2}\n',
    # the same with every line starting with { and ending with }: a line
    # boundary inside a nested list, made up by a line with two objects
    "split-list": (b'{"@K": "01", "x": [{}\n{}], "@V": @1}\n'
                   b'{"@K": "02", "@V": @1}, {"@K": "03", "@V": @2}\n'),
    "split-string": b'{"@K": "0}\n{1", "@V": @1}\n' + ROW2 + b"\n",
    "two-objects": ROW1 + b" " + ROW2 + b"\n" + ROW1 + b"\n",
    "two-objects-comma": ROW1 + b", " + ROW2 + b"\n",
    "blank-lines": b"\n" + ROW1 + b"\n\n  \n" + ROW2 + b"\n\n",
    "crlf": ROW1 + b"\r\n" + ROW2 + b"\r\n",
    "invalid-utf8": ROW1 + b'\n{"@K": "\xff", "@V": @2}\n' + ROW2 + b"\n",
    "non-ascii": b'{"@K": "\xc3\xa9", "@V": @1}\n' + ROW2 + b"\n",
    "bom": b"\xef\xbb\xbf" + ROW1 + b"\n" + ROW2 + b"\n",
    "non-string-key": b'{"@K": 7, "@V": @1}\n' + ROW2 + b"\n",
    "missing-field": b'{"@K": "01"}\n' + ROW2 + b"\n",
    "not-an-object": b"[1, 2]\n" + ROW2 + b"\n",
    "extra-fields": b'{"note": [1, 2], "@K": "01", "@V": @1, "z": null}\n' + ROW2 + b"\n",
    "nested-extra-field": b'{"note": {"a": [2]}, "@K": "01", "@V": @1}\n' + ROW2 + b"\n",
    "brace-in-key": b'{"@K": "{01}", "@V": @1}\n' + ROW2 + b"\n",
    "repeated-field": b'{"@K": "01", "@V": @1, "@V": @2}\n' + ROW2 + b"\n",
    "duplicate-keys": ROW1 + b"\n" + ROW2 + b'\n{"@K": "01", "@V": @2}\n',
    "torn-tail": ROW1 + b'\n{"@K": "02", "@V": ',
    "no-final-newline": ROW1 + b"\n" + ROW2,
    "deep-nesting": b'{"@K": "01", "@V": @1, "x": ' + b"[" * 100_000 + b"]" * 100_000
                    + b"}\n" + ROW2 + b"\n",
    "empty": b"",
}


def kind_bytes(kind, template: bytes) -> bytes:
    cls, good, _ = KINDS[kind]
    out = template.replace(b"@K", cls.key_field.encode()).replace(b"@V", cls.value_field.encode())
    for token, value in good.items():
        out = out.replace(token, value)
    return out


ADVERSARIAL_CASES = [(kind, name, template) for kind in KINDS
                     for name, template in ADVERSARIAL.items()] + [
    (kind, f"bad-value-{name}", ROW1 + b"\n" + b'{"@K": "03", "@V": ' + bad + b"}\n" + ROW2 + b"\n")
    for kind in KINDS for name, bad in KINDS[kind][2].items()
]


def assert_load_matches_per_line(kind, body, tmp_path):
    cls = KINDS[kind][0]
    path = tmp_path / "c.jsonl"
    path.write_bytes(body)
    entries, warned, torn = per_line_load(cls, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = cls.load(path)
    assert [str(w.message) for w in caught] == warned
    assert list(cache.entries.items()) == list(entries.items())
    # a torn last line gets its newline before the next entry, and only then
    value = 0.25 if cls is UtilityCache else "z"
    with cache:
        cache.put("zz", value)
    line = json.dumps({cls.key_field: "zz", cls.value_field: value}).encode() + b"\n"
    assert path.read_bytes() == body + (b"\n" if torn else b"") + line
    info = inspect_file(path)
    assert info["malformed"] == len(warned)
    assert info["entries"] == len(entries) + 1


# one line per ``json.loads`` block, or the whole file in one
BLOCKS = pytest.mark.parametrize("block", [1, cache_module._BLOCK], ids=["lines", "file"])


@BLOCKS
@pytest.mark.parametrize("kind, name, template", ADVERSARIAL_CASES,
                         ids=[f"{kind}-{name}" for kind, name, _ in ADVERSARIAL_CASES])
def test_load_matches_the_per_line_reading(kind, name, template, block, tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "_BLOCK", block)
    assert_load_matches_per_line(kind, kind_bytes(kind, template), tmp_path)


FRAGMENTS = [b"{", b"}", b"[", b"]", b'"', b",", b":", b" ", b"\n", b"\r", b"\\", b"\xff",
             b'"@K"', b'"@V"', b'"01"', b'"02"', b"@1", b"@2", b"NaN", b"7", ROW1, ROW2,
             ROW1 + b"\n", ROW2 + b"\n", b'{"@K": "0}\n{1", "@V": @1}\n']


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(KINDS)), st.lists(st.sampled_from(FRAGMENTS), max_size=12),
       st.sampled_from([1, 40, cache_module._BLOCK]))
def test_load_matches_the_per_line_reading_on_any_file(kind, fragments, block):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cache_module, "_BLOCK", block)
        assert_load_matches_per_line(kind, kind_bytes(kind, b"".join(fragments)), Path(tmp))


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_well_formed_file_is_read_without_the_per_line_parser(kind, tmp_path, monkeypatch):
    # several blocks, with a repeated key in the last
    cls = KINDS[kind][0]
    path = tmp_path / "c.jsonl"
    body = b"".join(kind_bytes(kind, b'{"@K": "%04x", "@V": @1}\n' % i) for i in range(2000))
    path.write_bytes(body + kind_bytes(kind, ROW1 + b"\n" + ROW2 + b"\n" + ROW1 + b"\n"))
    assert path.stat().st_size > 3 * cache_module._BLOCK
    expected = per_line_load(cls, path)[0]

    def refuse(line):
        raise AssertionError("the per-line parser must not run on a well-formed file")

    monkeypatch.setattr(cls, "_parse", staticmethod(refuse))
    assert list(cls.load(path).entries.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# batches through the cache


class RecordedFile:
    """A file whose ``write`` calls are recorded in ``writes``."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, data):
        self.writes.append(bytes(data))
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_every_store_is_on_disk_before_it_returns_in_one_write(tmp_path, monkeypatch):
    writes = []
    monkeypatch.setattr(cache_module, "open",
                        lambda *args, **kwargs: RecordedFile(open(*args, **kwargs), writes),
                        raising=False)
    path = tmp_path / "u.jsonl"
    with UtilityCache.load(path) as cache:
        cache.put("01", 0.5)
        assert path.read_text() == lines_of(UtilityCache, [("01", 0.5)])
        cache.put_many(["02", "01", "03"], [0.25, 0.9, 0.75])
        assert path.read_text() == lines_of(UtilityCache, [("01", 0.5), ("02", 0.25), ("03", 0.75)])
        cache.put_many(["02"], [1.0])                  # no new key: nothing to write
    assert writes == [lines_of(UtilityCache, [("01", 0.5)]).encode(),
                      lines_of(UtilityCache, [("02", 0.25), ("03", 0.75)]).encode()]


def test_an_unwritable_file_degrades_the_cache_to_memory_with_one_warning(tmp_path):
    path = tmp_path / "u.jsonl"
    path.mkdir()                                        # opening it to append fails
    with UtilityCache(path) as cache:
        with pytest.warns(UserWarning, match="not writable") as caught:
            cache.put("01", 0.5)
            cache.put_many(["02", "03"], [0.25, 0.75])
        assert len(caught) == 1
        assert cache.entries == {"01": 0.5, "02": 0.25, "03": 0.75}


def slow_batch(values, failing_at=None, delay=0.005):
    """An inner batch yielding ``values[mask]`` after ``delay`` seconds each,
    raising on the mask ``failing_at``."""

    def batch(masks, n):
        for mask in masks:
            time.sleep(delay)
            if mask == failing_at:
                raise ValueError("boom")
            yield values[mask]

    return batch


def lines_of(cache_cls, pairs):
    return "".join(json.dumps({cache_cls.key_field: key, cache_cls.value_field: value},
                              sort_keys=True) + "\n" for key, value in pairs)


MASKS = [5, 3, 5, 0, 2, 3, 6, 1]
VALUES = {mask: mask / 8 for mask in range(8)}


def test_a_slow_batch_writes_its_lines_before_it_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "FLUSH_S", 0.001)
    path = tmp_path / "u.jsonl"
    path.write_text(lines_of(UtilityCache, [("02", 0.25)]))
    with UtilityCache.load(path) as cache:
        batch = cached_utility(cache, slow_batch(VALUES))(MASKS, 3)
        seen = []
        for mask in MASKS:
            assert next(batch) == VALUES[mask]
            seen.append(mask)
            # every miss so far is on disk, in first-appearance order
            fresh = [m for m in dict.fromkeys(seen) if m != 2]
            assert path.read_text() == lines_of(UtilityCache, [("02", 0.25)] + [
                (hex_key(m, 3), VALUES[m]) for m in fresh])
        with pytest.raises(StopIteration):
            next(batch)


@pytest.mark.parametrize("flush_s", [0.001, 60.0], ids=["every-entry", "at-the-end"])
def test_a_failing_batch_leaves_the_lines_written_before_it(tmp_path, monkeypatch, flush_s):
    monkeypatch.setattr(cache_module, "FLUSH_S", flush_s)
    path = tmp_path / "u.jsonl"
    with UtilityCache.load(path) as cache:
        batch = cached_utility(cache, slow_batch(VALUES, failing_at=2))
        with pytest.raises(ValueError, match="boom"):
            list(batch(MASKS, 3))
        before = [5, 3, 0]          # the distinct misses before mask 2
        expected = lines_of(UtilityCache, [(hex_key(m, 3), VALUES[m]) for m in before])
        assert path.read_text() == expected
        assert list(cache.entries) == [hex_key(m, 3) for m in before]
    assert path.read_text() == expected


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_an_interrupted_batch_stores_the_values_before_it(tmp_path, monkeypatch, interrupt):
    monkeypatch.setattr(cache_module, "FLUSH_S", 3600.0)    # only the interrupt stores

    def inner(masks, n):
        for i, mask in enumerate(masks):
            if i == 3:
                raise interrupt
            yield VALUES[mask]

    path = tmp_path / "u.jsonl"
    with UtilityCache.load(path) as cache:
        batch = cached_utility(cache, inner)(MASKS, 3)
        with pytest.raises(interrupt):
            next(batch)
        before = [(hex_key(m, 3), VALUES[m]) for m in [5, 3, 0]]
        assert path.read_text() == lines_of(UtilityCache, before)
        assert cache.entries == dict(before)


def test_batch_asks_the_inner_batch_once_for_the_distinct_misses():
    calls = []

    def inner(masks, n):
        calls.append(list(masks))
        return [mask / 10 for mask in masks]

    cache = UtilityCache()
    cache.put("02", 0.75)
    wrapped = cached_utility(cache, inner)
    assert list(wrapped([3, 2, 1, 3, 0, 1], 4)) == [0.3, 0.75, 0.1, 0.3, 0.0, 0.1]
    assert calls == [[], [3, 1, 0]]      # the player-count probe, then the misses
    assert list(wrapped([2, 3], 4)) == [0.75, 0.3]   # all hits: no inner call
    assert calls == [[], [3, 1, 0]]
    assert cache.entries == {"02": 0.75, "03": 0.3, "01": 0.1, "00": 0.0}


def test_batch_refuses_an_inner_batch_that_ends_early():
    cache = UtilityCache()
    batch = cached_utility(cache, lambda masks, n: [0.5])(range(3), 2)
    assert next(batch) == 0.5
    with pytest.raises(UtilityOracleError, match="ended early"):
        next(batch)
    assert cache.entries == {"00": 0.5}


def test_an_inner_batch_that_gives_too_many_fails_on_the_last_coalition():
    cache = UtilityCache()
    cache.put("01", 0.25)
    batch = cached_utility(cache, lambda masks, n: [mask / 10 for mask in masks] + [0.9])
    with pytest.raises(UtilityOracleError, match="more values") as err:
        shapley_exact(GameSpec(n=2, batch=batch))
    assert err.value.details["coalition"] == "03"
    # only the misses' values are kept
    assert cache.entries == {"01": 0.25, "00": 0.0, "02": 0.2, "03": 0.3}


MEMO_KEYS = ["00", "01", "0a", 'q"\\', "\u00e9\n"]


@settings(max_examples=80, deadline=None)
@given(cls_values=st.one_of(
           st.tuples(st.just(UtilityCache),
                     st.lists(FINITE_UTILITY, min_size=len(MEMO_KEYS), max_size=len(MEMO_KEYS))),
           st.tuples(st.just(ResponseCache),
                     st.lists(JSON_TEXT, min_size=len(MEMO_KEYS), max_size=len(MEMO_KEYS)))),
       keys=st.lists(st.sampled_from(MEMO_KEYS), max_size=12),
       preloaded=st.sets(st.sampled_from(MEMO_KEYS), max_size=2),
       chunk=st.sampled_from([1, 2, 3]), flush_s=st.sampled_from([0.0, 3600.0]))
def test_memoized_stores_as_one_line_per_new_key(cls_values, keys, preloaded, chunk, flush_s):
    cls, values = cls_values
    value_of = dict(zip(MEMO_KEYS, values))
    # the preloaded keys hold the values of their neighbours, so a hit is told from a miss
    held = {key: values[MEMO_KEYS.index(key) - 1] for key in preloaded}
    entries = dict(held)
    for key in keys:
        entries.setdefault(key, value_of[key])
    misses = [key for key in dict.fromkeys(keys) if key not in held]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_CHUNK", chunk)
        patch.setattr(cache_module, "FLUSH_S", flush_s)
        path = os.path.join(tmp, "c.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines_of(cls, held.items()))
        asked = []

        def compute(at):
            asked.append(at)
            return (value_of[keys[i]] for i in at)

        with cls.load(path) as cache:
            assert list(memoized(cache, keys, compute)) == [entries[key] for key in keys]
            with open(path, encoding="utf-8") as fh:      # written when the batch ends
                assert fh.read() == lines_of(cls, entries.items())
        assert asked == ([[keys.index(key) for key in misses]] if misses else [])
        assert cache.entries == entries


def values_with_a_fault(fault, at):
    """An inner batch yielding ``VALUES[mask]`` until the value at position
    ``at``, where it raises or ends (``fault``); a ``long`` one yields one
    value past the masks asked."""

    def batch(masks, n):
        for i, mask in enumerate(masks):
            if i == at and fault == "raise":
                raise ValueError("boom")
            if i == at and fault == "short":
                return
            yield VALUES[mask]
        yield 0.5

    return batch


MASKS_WITH_HITS = [4, 1, 4, 6, 2, 1, 5, 3, 7]       # 2 is preloaded


@pytest.mark.parametrize("at", [1, 2, 3, 4], ids=lambda at: f"miss{at}")
@pytest.mark.parametrize("fault", ["raise", "short"])
def test_a_batch_failing_around_a_chunk_boundary_keeps_the_values_before_it(
        tmp_path, monkeypatch, fault, at):
    monkeypatch.setattr(cache_module, "_CHUNK", 2)          # boundaries after misses 2 and 4
    monkeypatch.setattr(cache_module, "FLUSH_S", 3600.0)
    path = tmp_path / "u.jsonl"
    preloaded = lines_of(UtilityCache, [("02", VALUES[2])])
    path.write_text(preloaded)
    misses = [m for m in dict.fromkeys(MASKS_WITH_HITS) if m != 2]
    with UtilityCache.load(path) as cache:
        values, exc = run_batch(cached_utility(cache, values_with_a_fault(fault, at)),
                                MASKS_WITH_HITS, 3)
        assert path.read_text() == preloaded + lines_of(UtilityCache, [
            (hex_key(m, 3), VALUES[m]) for m in misses[:at]])
    failed = MASKS_WITH_HITS.index(misses[at])
    assert MASKS_WITH_HITS[len(values)] == misses[at]        # the coalition run_batch names
    assert values == [VALUES[m] for m in MASKS_WITH_HITS[:failed]]
    assert isinstance(exc, ValueError) if fault == "raise" else \
        isinstance(exc, UtilityOracleError) and "ended early" in str(exc)


@pytest.mark.parametrize("preloaded", [[2], [2, 7]], ids=["7-misses", "6-misses"])
def test_a_batch_giving_too_many_keeps_every_value_and_fails_on_the_last(
        tmp_path, monkeypatch, preloaded):
    monkeypatch.setattr(cache_module, "_CHUNK", 2)
    monkeypatch.setattr(cache_module, "FLUSH_S", 3600.0)
    path = tmp_path / "u.jsonl"
    held = [(hex_key(m, 3), VALUES[m]) for m in preloaded]
    path.write_text(lines_of(UtilityCache, held))
    misses = [m for m in dict.fromkeys(MASKS_WITH_HITS) if m not in preloaded]
    with UtilityCache.load(path) as cache:
        values, exc = run_batch(cached_utility(cache, values_with_a_fault("long", None)),
                                MASKS_WITH_HITS, 3)
        assert path.read_text() == lines_of(UtilityCache, held + [
            (hex_key(m, 3), VALUES[m]) for m in misses])
    assert values == [VALUES[m] for m in MASKS_WITH_HITS[:-1]]
    assert isinstance(exc, UtilityOracleError) and "more values" in str(exc)


def five_prompt_vote():
    golds = (0, 1, 1)
    ids = tuple(f"q{i}" for i in range(len(golds)))
    matrix = PredictionMatrix(tuple(f"p{i}" for i in range(5)), ids, Mode.HARD_LABEL, 2,
                              hard=np.array([golds] * 5, dtype=np.int64))
    return matrix_utility(matrix, ValidationSet(tuple(zip(ids, golds)), 2), Rule.VOTE)


def test_a_cached_batch_refuses_a_wrong_player_count_on_a_hit():
    batch = cached_utility(UtilityCache(), five_prompt_vote().batch)
    assert list(batch([1, 3], 5)) == [1.0, 1.0]
    for masks in ([1, 3], [1, 7], []):         # hits, a miss, nothing asked
        with pytest.raises(ConsistencyError,
                           match="coalition is over 6 players but the matrix has 5 prompts"):
            batch(masks, 6)
    assert list(batch([3, 1], 5)) == [1.0, 1.0]
    values, exc = run_batch(batch, [1, 3], 6)
    assert values == [] and isinstance(exc, ConsistencyError)


N = 5
PRELOADED = '{"coalition": "03", "u": 0.25}\n{"coalition": "1f", "u": 0.625}\n'


def table_utility(mask):
    return mask.bit_count() / 8


def failing_oracle(target, fault, asked):
    """A batch oracle over ``table_utility`` that raises, or yields NaN, on
    ``target``; ``asked`` records every mask it is asked for."""

    def batch(masks, n):
        for mask in masks:
            asked.append(mask)
            if mask == target and fault == "raise":
                raise ValueError("boom")
            yield math.nan if mask == target else table_utility(mask)

    return batch


ENGINES = {
    "exact": lambda game: shapley_exact(game),
    "mc": lambda game: shapley_montecarlo(game, 12, seed=3),
    # every scan stops at its third player, within 0.25 of U(full) = 5/8
    "mc-truncated": lambda game: shapley_montecarlo(game, 12, truncation_tol=0.26, seed=3),
    "loo": lambda game: loo_values(game),
    "curve": lambda game: rank_add_curve([0.3, 0.1, 0.5, 0.2, 0.4], list("abcde"),
                                         game.batch),
}


def run_engine(engine, path, inner):
    """(outcome, masks asked of the cache in order) of ``engine`` on a game
    cached in ``path``; the outcome is the engine's result or its error."""
    order = []
    with UtilityCache.load(path) as cache:
        cached = cached_utility(cache, inner)

        def batch(masks, n):
            order.extend(masks)
            return cached(masks, n)

        try:
            return ENGINES[engine](GameSpec(n=N, batch=batch)), order
        except PromptShapError as exc:
            return exc, order


def first_reach(target, permutations=12, seed=3):
    """The permutation index and prefix where the seeded scan first reaches ``target``."""
    rng, perm = ReferenceSplitMix64(seed), list(range(N))
    for t in range(permutations):
        rng.shuffle(perm)
        for pos in range(N):
            if sum(1 << p for p in perm[: pos + 1]) == target:
                return {"permutation_index": t, "prefix": tuple(perm[: pos + 1])}
    raise AssertionError(f"no permutation reaches {target:#x}")


@pytest.mark.parametrize("fault", ["raise", "nan"])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_a_failure_in_a_batch_leaves_the_cache_of_a_per_coalition_run(engine, fault, tmp_path):
    clean = tmp_path / "clean.jsonl"
    clean.write_text(PRELOADED)
    _, order = run_engine(engine, clean, failing_oracle(None, fault, []))
    preloaded = {0b11, 0b11111}
    misses = [m for m in dict.fromkeys(order) if m not in preloaded]
    target = misses[len(misses) // 2]
    path = tmp_path / "u.jsonl"
    path.write_text(PRELOADED)
    asked = []
    outcome, order = run_engine(engine, path, failing_oracle(target, fault, asked))
    failed_at = order.index(target)
    assert asked == misses[: misses.index(target) + 1]

    if engine == "curve":
        message = "boom" if fault == "raise" else \
            f"utility oracle gave nan on coalition {hex_key(target, N)}, " \
            "not a finite real number"
        assert (outcome.failed_k, outcome.error) == (failed_at + 1, message)
        assert outcome.points[-1].utility is None
    else:
        assert isinstance(outcome, UtilityOracleError)
        context = first_reach(target) if engine.startswith("mc") else {}
        assert outcome.details == {"coalition": hex_key(target, N), **context}

    replay = tmp_path / "replay.jsonl"
    replay.write_text(PRELOADED)
    with UtilityCache.load(replay) as cache:       # one coalition at a time, each flushed
        for mask in order[:failed_at]:
            cache.put(hex_key(mask, N), table_utility(mask))
    assert path.read_bytes() == replay.read_bytes()


@pytest.mark.parametrize("kind, kept", [(int, int), (float, float), (np.int64, float),
                                        (np.float32, float), (Fraction, float)],
                         ids=["int", "float", "int64", "float32", "Fraction"])
@pytest.mark.parametrize("bound", [False, True], ids=["uncached", "cached"])
def test_a_finite_real_utility_is_kept_or_made_a_float(bound, kind, kept):
    def inner(masks, n):
        return [kind(mask.bit_count()) for mask in masks]

    cache = UtilityCache()
    result = shapley_exact(GameSpec(n=2, batch=cached_utility(cache, inner) if bound else inner))
    assert (result.u_empty, result.u_full) == (0, 2)
    assert type(result.u_empty) is kept and type(result.u_full) is kept
    assert [type(u) for u in cache.entries.values()] == ([kept] * 4 if bound else [])
    doc = json.loads(jsonio.dumps(result.to_json_dict()))
    assert (doc["u_empty"], doc["u_full"]) == (0, 2)


def test_an_unfit_utility_is_refused_before_the_cache_stores_it():
    def inner(masks, n):
        return [math.nan if mask == 0b11 else 0.5 for mask in masks]

    with pytest.raises(UtilityOracleError) as uncached:
        shapley_exact(GameSpec(n=2, batch=inner))
    cache = UtilityCache()
    with pytest.raises(UtilityOracleError) as cached:
        shapley_exact(GameSpec(n=2, batch=cached_utility(cache, inner)))
    assert str(cached.value) == str(uncached.value) == \
        "utility oracle gave nan on coalition 03, not a finite real number"
    assert cached.value.details == uncached.value.details == {"coalition": "03"}
    assert cache.entries == {"00": 0.5, "01": 0.5, "02": 0.5}


@pytest.mark.parametrize("bad", [-1, 1 << 9, 1 << 9 | 1], ids=["negative", "n", "n-and-0"])
def test_a_cached_batch_refuses_a_mask_outside_its_players_before_any_lookup(bad):
    asked = []

    def inner(masks, n):
        asked.extend(masks)
        return [0.0] * len(masks)

    batch = cached_utility(UtilityCache(), inner)
    with pytest.raises(PreconditionError, match=f"coalition mask {bad:#x} has bits outside"):
        list(batch([0b1, bad], 9))
    assert asked == []
