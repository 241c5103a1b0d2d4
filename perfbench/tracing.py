"""Spans and counters recorded around promptshap's public entry points.

The traced run replaces module-level functions and class methods with thin
wrappers from this file; nothing inside the program changes. A span records
name, start, end, parent span and the job (run id) it belongs to. Spans stay
in memory, in flat arrays, until the run ends and ``layer_metrics`` reduces
them.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Open spans nest on a stack; the job being traced is ``run_id``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` inside a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def arrays(self) -> dict:
        """Spans as numpy arrays, plus each span's duration and self time."""
        name = np.array(self.name, dtype=np.intp)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.intp)
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {"name": name, "duration": duration, "self": duration - child, "parent": parent}


_MISSING = object()


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # an inherited method is shadowed on ``owner``, then deleted again
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make) -> None:
        """Swap ``module.attr`` for ``make(original)`` in every loaded promptshap
        module that imported it by name, so calls through any of them see it."""
        original = getattr(module, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "promptshap" or name.startswith("promptshap.")) and \
                    mod.__dict__.get(attr) is original:
                self.set(mod, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# the wrapped entry points

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap each layer's public entry points so calls into it record spans."""
    import requests

    from promptshap import cache, client, coalition, ensemble, game, jsonio, learning, rng, selection

    spans = tracer.wrap
    counts = tracer.counts

    def oracle_factory(span_name):
        def make(original):
            @functools.wraps(original)
            def factory(*args, **kwargs):
                return spans(original(*args, **kwargs), span_name)
            return factory
        return make

    patcher.function(ensemble, "load_matrix", lambda f: spans(f, "ensemble.load_matrix"))
    patcher.function(ensemble, "load_validation", lambda f: spans(f, "ensemble.load_validation"))
    patcher.function(ensemble, "matrix_utility", oracle_factory("ensemble.oracle"))
    patcher.function(client, "augmentation_utility", oracle_factory("client.oracle"))

    def engine(name):
        def make(original):
            @functools.wraps(original)
            def traced(spec, *args, **kwargs):
                seen = set()
                inner = spans(spec.utility, "game.eval")

                def utility(coalition):
                    seen.add(coalition.mask)
                    return inner(coalition)

                idx = tracer.open(name)
                try:
                    return original(dataclasses.replace(spec, utility=utility), *args, **kwargs)
                finally:
                    tracer.close(idx)
                    counts["game.distinct"] += len(seen)
            return traced
        return make

    for name in ("shapley_exact", "shapley_montecarlo", "loo_values"):
        patcher.function(game, name, engine(f"game.{name}"))

    def curve(original):
        @functools.wraps(original)
        def traced(values, prompt_ids, oracle, *args, **kwargs):
            return original(values, prompt_ids, spans(oracle, "selection.eval"), *args, **kwargs)
        return spans(traced, "selection.rank_add_curve")

    patcher.function(selection, "rank_add_curve", curve)

    for cls in (cache.UtilityCache, cache.ResponseCache):
        _wrap_cache(tracer, patcher, cls)

    def complete(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except Exception:
                counts["client.failed"] += 1
                raise
        return spans(traced, "client.complete")

    patcher.function(client, "complete", complete)

    post = requests.post

    @functools.wraps(post)
    def traced_post(*args, **kwargs):
        idx = tracer.open("http.post")
        try:
            response = post(*args, **kwargs)
        except Exception:
            counts["http.errors"] += 1
            raise
        finally:
            tracer.close(idx)
        counts["http.retryable"] += response.status_code in RETRYABLE_STATUS
        return response

    patcher.set(requests, "post", traced_post)

    def learning_span(name, rows_of):
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                # bytes of the float64 pairwise-difference tensor a GP builds
                a, b, d = rows_of(*args)
                counts["learning.kernel_bytes"] = max(counts["learning.kernel_bytes"], a * b * d * 8)
                return original(*args, **kwargs)
            return spans(traced, name)
        return make

    def shape(X):
        return np.shape(getattr(X, "vectors", X))

    patcher.function(learning, "holdout_eval", lambda f: spans(f, "learning.holdout_eval"))
    patcher.function(learning, "fit_regressor", learning_span(
        "learning.fit_regressor", lambda X, *rest: (shape(X)[0], shape(X)[0], shape(X)[1])))
    patcher.function(learning, "predict_sv", learning_span(
        "learning.predict_sv",
        lambda model, X, *rest: (shape(X)[0], np.shape(model.x_train)[0], shape(X)[1])
        if model.x_train is not None else (0, 0, 0)))

    def read_jsonl(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            rows = original(*args, **kwargs)
            counts["jsonio.rows"] += len(rows)
            return rows
        return spans(traced, "jsonio.read_jsonl")

    patcher.function(jsonio, "read_jsonl", read_jsonl)

    construct = coalition.Coalition.__post_init__

    def counted_construct(self):
        counts["coalition.constructed"] += 1
        construct(self)

    patcher.set(coalition.Coalition, "__post_init__", counted_construct)

    next_u64 = rng.SplitMix64.next_u64
    shuffle = rng.SplitMix64.shuffle

    def counted_next(self):
        counts["rng.draws"] += 1
        return next_u64(self)

    def counted_shuffle(self, xs):
        counts["rng.shuffles"] += 1
        return shuffle(self, xs)

    patcher.set(rng.SplitMix64, "next_u64", counted_next)
    patcher.set(rng.SplitMix64, "shuffle", counted_shuffle)


def _wrap_cache(tracer: Tracer, patcher: Patcher, cls) -> None:
    counts = tracer.counts
    load = cls.load.__func__
    get = cls.get
    put = cls.put

    def traced_load(klass, path, *args, **kwargs):
        idx = tracer.open("cache.load")
        try:
            loaded = load(klass, path, *args, **kwargs)
        finally:
            tracer.close(idx)
        counts["cache.load_entries"] += len(loaded)
        return loaded

    def traced_get(self, key):
        idx = tracer.open("cache.get")
        try:
            value = get(self, key)
        finally:
            tracer.close(idx)
        counts["cache.hits" if value is not None else "cache.misses"] += 1
        return value

    def size(path):
        try:
            return os.path.getsize(path) if path else 0
        except OSError:
            return 0

    def traced_put(self, key, value):
        before = size(self.path)
        idx = tracer.open("cache.put")
        try:
            return put(self, key, value)
        finally:
            tracer.close(idx)
            counts["cache.bytes_written"] += size(self.path) - before

    patcher.set(cls, "load", classmethod(traced_load))
    patcher.set(cls, "get", traced_get)
    patcher.set(cls, "put", traced_put)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def _percentile_us(durations, q) -> float:
    return float(np.percentile(durations, q)) * 1e6 if len(durations) else 0.0


def layer_metrics(tracer: Tracer, stub_service_s: float) -> dict:
    """Per-layer metrics of one traced iteration (its primary and follow-up jobs)."""
    a = tracer.arrays()
    span_names = np.array(tracer.names + [""])[a["name"]]
    parent_names = np.where(a["parent"] >= 0, span_names[a["parent"]], "")

    def pick(*wanted):
        return np.isin(span_names, wanted)

    def total(mask, field="duration") -> float:
        return float(a[field][mask].sum())

    counts = tracer.counts
    oracle = a["duration"][pick("ensemble.oracle")]
    posts = a["duration"][pick("http.post")]
    evals = int(pick("game.eval").sum())
    engines = pick("game.shapley_exact", "game.shapley_montecarlo", "game.loo_values")
    hits, misses = counts["cache.hits"], counts["cache.misses"]
    complete = pick("client.complete")
    cache_in_complete = pick("cache.get", "cache.put") & (parent_names == "client.complete")
    top_level_learning = parent_names != "learning.holdout_eval"
    return {
        "ensemble.oracle_calls": len(oracle),
        "ensemble.oracle_busy_s": float(oracle.sum()),
        "ensemble.oracle_p50_us": _percentile_us(oracle, 50),
        "ensemble.oracle_p99_us": _percentile_us(oracle, 99),
        "ensemble.load_s": total(pick("ensemble.load_matrix", "ensemble.load_validation")),
        "game.evals": evals,
        "game.self_s": total(engines, "self"),
        "game.distinct_ratio": counts["game.distinct"] / evals if evals else 0.0,
        "coalition.constructed": counts["coalition.constructed"],
        "rng.shuffles": counts["rng.shuffles"],
        "rng.draws": counts["rng.draws"],
        "cache.load_s": total(pick("cache.load")),
        "cache.load_entries": counts["cache.load_entries"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.get_busy_s": total(pick("cache.get")),
        "cache.put_calls": int(pick("cache.put").sum()),
        "cache.put_busy_s": total(pick("cache.put")),
        "cache.bytes_written": counts["cache.bytes_written"],
        "client.requests": len(posts),
        "client.retries": counts["http.retryable"] + counts["http.errors"],
        "client.failed": counts["client.failed"],
        "client.rtt_p50_ms": _percentile_us(posts, 50) / 1e3,
        "client.rtt_p99_ms": _percentile_us(posts, 99) / 1e3,
        "client.self_s": (total(complete) - stub_service_s - total(cache_in_complete))
        if complete.any() else 0.0,
        "stub.service_s": stub_service_s,
        "selection.curve_s": total(pick("selection.rank_add_curve")),
        "selection.oracle_calls": int(pick("selection.eval").sum()),
        "learning.holdout_s": total(pick("learning.holdout_eval")),
        "learning.fit_s": total(pick("learning.fit_regressor") & top_level_learning),
        "learning.predict_s": total(pick("learning.predict_sv") & top_level_learning),
        "learning.kernel_bytes": counts["learning.kernel_bytes"],
        "jsonio.read_s": total(pick("jsonio.read_jsonl")),
        "jsonio.rows": counts["jsonio.rows"],
        "trace.spans": len(a["duration"]),
    }
