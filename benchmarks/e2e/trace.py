"""In-memory span and counter recorder for the traced benchmark run.

A span opened while another is open becomes its child, so the spans of
one run form a call tree.  A span's *self time* is its duration minus
the part of that interval its child spans cover.  Counters are named
totals (``count`` adds).  Nothing is written until :meth:`Tracer.
write_chrome`, which emits Chrome trace-event JSON (``ph: "X"`` spans,
``ph: "C"`` counters, microsecond ``ts``/``dur``) that any trace viewer
opens.

Spans marked ``probe=True`` are extra calls the traced run makes to
measure one layer in isolation (they are not part of the op), so
:meth:`Tracer.coverage` leaves them out of both sides of its ratio.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    #: Index of the enclosing span in ``Tracer.spans`` (None at top level).
    parent: int | None = None
    probe: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans and counters against a monotonic nanosecond clock."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self.start_ns = clock()
        self.end_ns: int | None = None

    @contextmanager
    def span(self, name: str, probe: bool = False):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent, probe=probe))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end_ns = self.clock()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def close(self) -> None:
        """Ends the traced wall interval; spans must all be closed."""
        if self._open:
            raise RuntimeError(f"span {self.spans[self._open[-1]].name!r} still open")
        self.end_ns = self.clock()

    def self_ns(self, index: int) -> int:
        """Duration of span ``index`` minus the union of its children's
        intervals (clipped to the span)."""
        span = self.spans[index]
        kids = sorted(
            (max(s.start_ns, span.start_ns), min(s.end_ns, span.end_ns))
            for s in self.spans
            if s.parent == index
        )
        covered, reach = 0, span.start_ns
        for start, end in kids:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration_ns - covered

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + self.self_ns(i) / 1e9
        return out

    def top_level_seconds(self, probe: bool) -> float:
        return sum(
            s.duration_ns for s in self.spans if s.parent is None and s.probe == probe
        ) / 1e9

    def wall_seconds(self) -> float:
        if self.end_ns is None:
            raise RuntimeError("tracer not closed")
        return (self.end_ns - self.start_ns) / 1e9

    def coverage(self) -> float:
        """Share of the traced wall, probes excluded, that non-probe
        top-level spans account for."""
        wall = self.wall_seconds() - self.top_level_seconds(probe=True)
        return self.top_level_seconds(probe=False) / wall if wall > 0 else 0.0

    def chrome_events(self) -> list[dict]:
        pid = os.getpid()
        events = []
        for i, s in enumerate(self.spans):
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start_ns - self.start_ns) / 1e3,
                "dur": s.duration_ns / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {"self_us": self.self_ns(i) / 1e3, "probe": s.probe},
            })
        end_us = ((self.end_ns or self.clock()) - self.start_ns) / 1e3
        for name, value in sorted(self.counters.items()):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "C",
                "ts": end_us,
                "pid": pid,
                "tid": 1,
                "args": {"value": value},
            })
        return events

    def write_chrome(self, path: str, metadata: dict | None = None) -> str:
        doc = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        return path
