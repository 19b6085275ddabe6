"""In-memory spans around calls into rwclust, recorded from outside the package.

A `Tracer` replaces public names in rwclust's modules with wrappers for the
duration of a `with tracer.patched(...)` block. Each wrapped call appends one
span: id, name, start, end, the id of the span that was open when it started
(its parent) and the id of its root span, plus optional work counts computed
from the call's arguments and result. Spans stay in memory; the caller writes
them out when the run ends.

Calls are assumed to nest on one thread: rwclust's worker threads run inside
`distance_matrix` and never call a wrapped name themselves.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._open[-1] if self._open else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
            "work": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if count is not None:
            span["work"] = count(args, kwargs or {}, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    @contextmanager
    def patched(self, targets):
        """Swap each (module, attribute, count) target for a traced wrapper.

        A span is named after the module that defines the function and the
        function's name, e.g. `ingestion.load_panel`, whichever module it was
        imported into. Attributes a module does not have are skipped; the
        block receives their "module.attribute" names.
        """
        saved, missing = [], []
        try:
            for module, attr, count in targets:
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children, by span id."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def summarize(spans: list[dict]) -> dict:
    """Per span name: call count, total seconds and self seconds; summed work counts.

    `spans` must hold whole trees (every span's parent is in the list or None).
    `root_s` is the summed duration of the roots, which the self times of all
    spans add up to.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    work: Counter = Counter()
    children: Counter = Counter()
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        calls[s["name"]] += 1
        total[s["name"]] += duration(s)
        own[s["name"]] += selfs[s["id"]]
        work.update(s["work"])
        if s["parent"] is not None:
            children[(by_id[s["parent"]]["name"], s["name"])] += 1
    return {
        "calls": calls,
        "total_s": total,
        "self_s": own,
        "work": work,
        "children": children,
        "root_s": sum(duration(s) for s in spans if s["parent"] is None),
        "self_sum_s": sum(selfs.values()),
    }
