"""In-memory spans around the benchmark's own calls into gts_tail.

A span records a name, its start and end (perf_counter seconds) and the
span that was open when it began.  Spans stay in memory and are written out
once, when the run ends.  A disabled tracer hands out one shared no-op
context manager, so the untraced run pays only a method call per span.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_NOOP = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NOOP

    @contextlib.contextmanager
    def _span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def summary(self) -> dict:
        """Count, total and self time per span name.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the benchmark is sequential.
        """
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            d = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += d
            row["self_s"] += d - child_time.get(s["id"], 0.0)
        return out

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["summary"] = self.summary()
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
