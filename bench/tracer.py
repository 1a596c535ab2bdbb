"""In-memory tracing of slidechrom's public functions, from outside.

``install()`` wraps each function in ``TARGETS`` and replaces every
reference to it in every loaded ``slidechrom`` module, because modules
bind names at import (``chromatic`` holds its own ``descent_composition``
and ``slide_polynomial``) while ``keys`` looks ``chromatic_via_slides``
up on the module at call time.  A target that the package no longer has
(renamed, moved, ``slide_polynomial`` without ``cache_info``, or no
``keys._KEY_CACHE``) is listed
in ``unresolved``; run.py then fails the traced run, so a refactor must
update ``TARGETS`` rather than see its layer read zero.

Every wrapped call adds to a per-name ``[count, total_s, self_s]``
aggregate; self time is the call's duration minus the time its wrapped
children took.  Calls marked as spans are also recorded as
``(id, parent_id, name, start, end, item)`` tuples.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, trace name, record a span)
TARGETS = [
    ("slidechrom.dyck", "PartialDyckPath.__init__", "dyck.path", False),
    ("slidechrom.dyck", "dyck_graph", "dyck.dyck_graph", False),
    ("slidechrom.dyck", "restriction_map", "dyck.restriction_map", False),
    ("slidechrom.posets", "descent_composition", "posets.descent_composition", False),
    ("slidechrom.posets", "graph_inversions", "posets.graph_inversions", False),
    ("slidechrom.compositions", "slide_set", "compositions.slide_set", False),
    ("slidechrom.compositions", "leq_slide", "compositions.leq_slide", False),
    ("slidechrom.slides", "slide_polynomial", "slides.slide_polynomial", False),
    ("slidechrom.slides", "expand_in_slides", "slides.expand_in_slides", True),
    ("slidechrom.tpoly", "TPolynomial.__add__", "tpoly.add", False),
    ("slidechrom.tpoly", "TPolynomial.scaled", "tpoly.scaled", False),
    ("slidechrom.chromatic", "chromatic_brute", "chromatic.brute", True),
    ("slidechrom.chromatic", "chromatic_via_slides", "chromatic.via_slides", True),
    ("slidechrom.chromatic", "fundamental_expansion", "chromatic.fundamental_expansion", True),
    ("slidechrom.keys", "key_expansion_of_chromatic", "keys.key_expansion_of_chromatic", True),
    ("slidechrom.keys", "expand_in_keys", "keys.expand_in_keys", True),
    ("slidechrom.keys", "divided_difference", "keys.divided_difference", False),
]


class CountingCache(dict):
    """Slide-to-key cache that counts membership tests and hits."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def __contains__(self, key):
        found = super().__contains__(key)
        self.lookups += 1
        self.hits += found
        return found


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.frames: list[list] = []  # [child_s, span_id] per open call
        self.item = None
        self.distinct_indices = 0
        self.peel_outputs = 0
        self.slide_cache = None  # the original lru function, for cache_info()
        self.base = (0, 0, 0)  # slide hits, slide misses, key entries at reset
        self.unresolved: list[str] = []  # targets install() could not wrap

    def reset(self):
        """Forget everything recorded so far (used in forked children)."""
        for agg in self.stats.values():
            agg[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.frames.clear()
        self.distinct_indices = 0
        self.peel_outputs = 0
        self.base = self._cache_counts()

    def wrap(self, name, fn, span, on_result=None):
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self.frames
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                took = t1 - t0
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[0]
                if frames:
                    frames[-1][0] += took
                if span:
                    spans[frame[1]] = (frame[1], parent, name, t0, t1, self.item)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def item_span(self, index):
        """Context for one benchmark item; its span parents the calls inside."""
        return _ItemSpan(self, index)

    def _count_indices(self, result):
        self.distinct_indices += len(result[1])

    def _count_peel(self, result):
        self.peel_outputs += len(result)

    def _cache_counts(self):
        hits = misses = entries = 0
        info = getattr(self.slide_cache, "cache_info", None)
        if info is not None:
            ci = info()
            hits, misses = ci.hits, ci.misses
        key_cache = getattr(sys.modules.get("slidechrom.keys"), "_KEY_CACHE", None)
        if isinstance(key_cache, dict):
            entries = len(key_cache)
        return hits, misses, entries

    def snapshot(self) -> dict:
        """Aggregates and counters recorded since install or reset."""
        now = self._cache_counts()
        hits, misses, entries = (a - b for a, b in zip(now, self.base))
        return {
            "stats": self.stats,
            "slide_cache": [hits, misses],
            "key_cache_entries": entries,
            "distinct_indices": self.distinct_indices,
            "peel_outputs": self.peel_outputs,
            "spans": self.spans,
            "unresolved": self.unresolved,
        }


class _ItemSpan:
    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tr = self.tracer
        tr.item = self.index
        self.id = len(tr.spans)
        tr.spans.append(None)
        self.frame = [0.0, self.id]
        tr.frames.append(self.frame)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr.frames.pop()
        tr.spans[self.id] = (self.id, None, "item", self.t0, t1, self.index)
        tr.item = None
        return False


def _resolve(module, attr):
    """(owner, name, function) for "func" or "Class.method"."""
    if "." not in attr:
        return module, attr, getattr(module, attr, None)
    cls_name, name = attr.split(".")
    cls = getattr(module, cls_name, None)
    return cls, name, vars(cls).get(name) if isinstance(cls, type) else None


def install() -> Tracer:
    """Import slidechrom, wrap every target and return the tracer."""
    import slidechrom  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    callbacks = {
        "chromatic.via_slides": tracer._count_indices,
        "slides.expand_in_slides": tracer._count_peel,
    }
    modules = [m for name, m in list(sys.modules.items())
               if name == "slidechrom" or name.startswith("slidechrom.")]
    for mod_name, attr, name, span in TARGETS:
        module = sys.modules.get(mod_name)
        owner, last, original = _resolve(module, attr) if module else (None, None, None)
        if original is None or not callable(original):
            tracer.unresolved.append(f"{mod_name}.{attr}")
            continue
        traced = tracer.wrap(name, original, span, callbacks.get(name))
        if name == "slides.slide_polynomial":
            tracer.slide_cache = original
            if not callable(getattr(original, "cache_info", None)):
                tracer.unresolved.append(f"{mod_name}.{attr}.cache_info")
        if isinstance(owner, type):
            setattr(owner, last, traced)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    if not isinstance(getattr(sys.modules.get("slidechrom.keys"), "_KEY_CACHE", None), dict):
        tracer.unresolved.append("slidechrom.keys._KEY_CACHE")
    return tracer
