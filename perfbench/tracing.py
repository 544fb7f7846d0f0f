"""In-memory span tracing from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing a public
method on an object it built and passed in (a device's ``execute``, the
router's ``select``, an attention callable, ...) with a wrapper that records
a span around the original call.  Spans live in one list per traced
iteration and are written out once the run ends.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the span
that was open when this one began (``-1`` at the top), so self time is the
span's duration minus the durations of its direct children.  The code under
test is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["LayerTotals", "Tracer"]


class LayerTotals:
    """Per-name aggregates of one traced iteration: calls, total and self time."""

    def __init__(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(spans):
            # A cost probe (batch_latency_seconds) re-enters execute(); that
            # execute is part of the probe, not a dispatched batch.
            if name == "devices.execute" and parent >= 0 and spans[parent][0] == "devices.probe":
                name = "devices.probe.execute"
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_time[index]


class Tracer:
    """Collects spans for one traced iteration (``run_id`` tags its output)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (a callable) with a span-recording wrapper."""
        setattr(owner, attribute, self.wrap_callable(getattr(owner, attribute), name))

    def wrap_callable(self, function, name: str):
        """Return a span-recording wrapper of a plain callable."""
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def totals(self) -> LayerTotals:
        return LayerTotals(self.spans)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: name, start and end (s), parent index, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, round(start - origin, 9), round(end - origin, 9), parent]
                        for name, start, end, parent in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )
