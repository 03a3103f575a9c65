"""In-memory span recorder used by the benchmark's traced runs.

A span is one call into a layer: its name, start, end and the index of the
span that was open when it started (its parent, -1 at the top).  Spans are
kept in parallel lists while the run lasts and written out once at the end.
The recorder wraps callables from outside the library (module attributes
and class attributes) and puts every wrapped name back on ``restore``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Nested spans and named counters of one benchmark pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, fn, args, kwargs)`` runs first."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, fn, args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans come from one thread and nest, so the children of a span never
        overlap and their durations add up to the part of it they cover.
        """
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as ``[name index, start, end, parent]``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": table, "spans": spans,
                       "counters": dict(self.counters)}, fh)
