"""Spans around the benchmark's calls into the program.

A span records a name, start, end, its parent span and the request it
belongs to. Spans are kept in memory and written out when the run ends; the
per-layer summary is derived from them. The layer of a span is its name up
to the first dot (``compressor.merge`` belongs to ``compressor``).
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Times calls when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._request: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        # Reserve the slot so child spans get later ids than their parent.
        self.spans.append(None)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[span_id] = Span(span_id, name, start, end, parent, self._request)

    def request(self, request_id: int, fn, *args):
        """Run one request under a ``request`` span that parents its calls."""
        self._request = request_id
        try:
            return self.call("request", fn, *args)
        finally:
            self._request = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: list[Span]) -> dict:
    """Per-layer busy time, self time, call count, per-call median and busy share.

    Busy time counts a layer's outermost spans only, so nested spans of the
    same layer are not counted twice. Self time is a span's duration minus
    the part its child spans cover. Shares are of the summed request time.
    """
    by_id = {s.span_id: s for s in spans}
    child_ms: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
    request_ms = sum(s.ms for s in spans if s.name == "request")
    layers: dict[str, dict] = {}
    calls: dict[str, list[float]] = {}
    for s in spans:
        calls.setdefault(s.name, []).append(s.ms)
        row = layers.setdefault(
            s.layer, {"busy_ms": 0.0, "self_ms": 0.0, "calls": 0, "per_call": {}}
        )
        row["calls"] += 1
        row["self_ms"] += s.ms - child_ms.get(s.span_id, 0.0)
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            row["busy_ms"] += s.ms
    for name, values in calls.items():
        layers[name.split(".", 1)[0]]["per_call"][name] = {
            "calls": len(values),
            "p50_ms": p50(values),
        }
    for row in layers.values():
        row["busy_frac"] = row["busy_ms"] / request_ms if request_ms else 0.0
    return {"request_ms": request_ms, "layers": layers, "calls": calls}
