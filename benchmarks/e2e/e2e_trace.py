"""Span recorder for the traced benchmark run.

Spans are recorded only by benchmark code, around its calls into each
layer of ``repro``: name, start and end (``perf_counter_ns``), the
enclosing span, and the experiment id when the span belongs to one
injection experiment.  They stay in memory and are written out once,
when the traced child exits, so writing never lands inside a span.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> list:
        self.record[1] = _now()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record[2] = _now()
        self.tracer._stack.pop()


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent, exp]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, exp: Optional[str] = None) -> _Span:
        """Context manager timing one call into a layer."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, exp]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an already-measured interval under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, None])

    # -- derived views ------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _name, start, end, _parent, _exp
               in self.spans]
        for _name, start, end, parent, _exp in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def durations(self, name: str) -> List[int]:
        return [end - start for span_name, start, end, _parent, _exp
                in self.spans if span_name == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name)) / 1e9

    def write(self, path: Path, workload: str) -> None:
        """Append every span as one JSON line (ids are list positions)."""
        self_ns = self.self_ns()
        with Path(path).open("a") as handle:
            for index, (name, start, end, parent, exp) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "workload": workload, "id": index, "name": name,
                    "start_ns": start, "end_ns": end,
                    "self_ns": self_ns[index],
                    "parent": parent if parent >= 0 else None,
                    "exp": exp}) + "\n")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
