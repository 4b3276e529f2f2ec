"""Outside-in span tracer.

The tracer never edits the library.  It swaps a timing wrapper in for a
function at every place that binds it (a module global or a class
attribute) and puts the originals back afterwards, so a call counts
whichever module it is made from.  Spans stay in memory until the run
ends; aggregation reads them once.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans; -1 for a root span
    attr: object = None  # label-specific detail: rows, level, direction

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, attr) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    attr)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attr=None):
        """A span around the benchmark's own code, e.g. one unit."""
        s = self._open(name, attr)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(*label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        return traced

    @contextmanager
    def installed(self, labels: dict, owners):
        """Wrap every attribute of `owners` that is one of the functions in
        `labels` (function -> label(args, kwargs) -> (name, attr)); restore
        all of them on exit."""
        by_id = {id(fn): (fn, label) for fn, label in labels.items()}
        patched = []
        try:
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    hit = by_id.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(owner, attr, self._wrap(val, hit[1]))
                        patched.append((owner, attr, val))
            yield self
        finally:
            for owner, attr, val in reversed(patched):
                setattr(owner, attr, val)

    def ancestors_named(self, names) -> list[int]:
        """For each span, the index of its nearest ancestor-or-self whose
        name is in `names`, or -1.  Parents precede children, so one
        forward pass suffices."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name in names:
                out.append(i)
            else:
                out.append(out[s.parent] if s.parent >= 0 else -1)
        return out

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]
