"""Span recorder for the traced run, and self-time aggregation of its spans.

A span records (id, name, tag, start, end, parent) with perf_counter times.
Spans stay in memory and are written to one JSON file when the child exits.
The recorder also times its own bookkeeping, which is the difference between
the traced and the untraced wall time of the same calls.
"""

import json
import time
from contextlib import nullcontext


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, tag):
        self.tracer = tracer
        self.record = [len(tracer.spans), name, tag, 0.0, 0.0, None]

    def __enter__(self):
        t0 = time.perf_counter()
        tr = self.tracer
        rec = self.record
        rec[5] = tr.stack[-1] if tr.stack else None
        tr.spans.append(rec)
        tr.stack.append(rec[0])
        rec[3] = t1 = time.perf_counter()
        tr.overhead += t1 - t0
        return self

    def __exit__(self, *exc):
        t0 = time.perf_counter()
        tr = self.tracer
        self.record[4] = t0
        tr.stack.pop()
        tr.overhead += time.perf_counter() - t0
        return False


class Tracer:
    """Collects spans of one run in memory."""

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.overhead = 0.0

    def span(self, name, tag=""):
        return _Span(self, name, tag)

    def write(self, path):
        keys = ("id", "name", "tag", "start", "end", "parent")
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "overhead_s": self.overhead,
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                },
                fh,
            )


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name, tag=""):
        return self._null


def self_times(spans):
    """Per span id: duration minus the time covered by its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
