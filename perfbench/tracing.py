"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``note`` an optional number captured
from the call (a matrix size, a step count).  Spans are appended in start
order, so a parent always precedes its children.  Nothing is written until
:meth:`Tracer.dump_jsonl` runs at the end of the benchmark.

Library functions are traced by replacing the name where it is consumed
(``qbacktrack.algorithms.build_walk_operator``, not
``qbacktrack.walk.build_walk_operator``), because the callers bind the name
at import time with ``from .walk import ...``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = self.clock()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` fills the note."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, sites):
        """Trace every ``(owner, attribute, span name, note)`` site while active."""
        saved = []
        try:
            for owner, attr, name, note in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if note is not None:
                    row["note"] = note
                out.write(json.dumps(row) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, note in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, (end - start) - covered))
    return out


def root_of(spans: list[list]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots: list[int] = []
    for i, span in enumerate(spans):
        parent = span[3]
        roots.append(i if parent < 0 else roots[parent])
    return roots
