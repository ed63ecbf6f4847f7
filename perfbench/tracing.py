"""Spans around the benchmark's calls into angval, kept in memory.

A span holds a name (`layer.function`), an optional tag naming the input
class, the work it covered (steps, cells, evaluations; 1 if unset), start
and end (perf_counter seconds), the id of the enclosing span and the run
id.  Spans are written out once, when the run ends.  The
untraced run uses `NullTracer`, whose span is a shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import time
from statistics import median



class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, name, tag, work, start, end, parent]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, tag=None, work=1):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, tag, work, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[6] is not None:
                out[s[6]] -= s[5] - s[4]
        return out

    def self_time_by_name(self):
        totals = {}
        for s, st in zip(self.spans, self.self_times()):
            key = s[1] if s[2] is None else "%s[%s]" % (s[1], s[2])
            t = totals.setdefault(key, [0, 0.0])
            t[0] += 1
            t[1] += st
        return {k: {"count": c, "self_s": v} for k, (c, v) in sorted(totals.items())}

    def write(self, path):
        keys = ("id", "name", "tag", "work", "start", "end", "parent")
        with open(path, "w") as fh:
            for rec in self.spans:
                row = dict(zip(keys, rec))
                row["run"] = self.run_id
                fh.write(json.dumps(row) + "\n")


class NullTracer:
    run_id = None
    spans = ()
    _null = contextlib.nullcontext()

    def span(self, name, tag=None, work=1):
        return self._null


def span_cost_us(batches=5, n=4000):
    """Cost of one empty span, in microseconds (median over batches)."""
    tracer = Tracer("span-cost")
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("trace.empty"):
                pass
        costs.append((time.perf_counter() - t0) / n * 1e6)
    return median(costs)
