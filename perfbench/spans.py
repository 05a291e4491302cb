"""In-memory span tracer for the benchmark's traced run.

Spans are opened by wrappers that replace module or class attributes of the
package for the duration of the traced bodies; the package source is never
changed, and the untraced run installs nothing.  Spans stay in memory and are
written once, at exit, with their self times.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, tag, start, end, parent index]
        self.tag = ""                    # problem label copied into new spans
        self._open: list[int] = []
        self._installed: list[tuple] = []

    def _begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.tag, time.perf_counter(), None, parent])
        self._open.append(i)
        return i

    def _end(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter()
        self._open.pop()

    def install(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that records one span per call."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._end(i)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, tag, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def totals(self, first: int = 0, last: int | None = None) -> dict:
        """{(name, tag): [calls, inclusive s, self s]} over spans[first:last]."""
        selfs = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, tag, t0, t1, _), s in zip(self.spans[first:last], selfs[first:last]):
            row = out[(name, tag)]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += s
        return dict(out)

    def write(self, path, meta: dict) -> None:
        t_ref = self.spans[0][2] if self.spans else 0.0
        selfs = self.self_times()
        summary = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, tag), (calls, total, own) in self.totals().items():
            row = summary[name + (f".{tag}" if tag else "")]
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
        doc = dict(meta, summary=summary, span_fields=[
            "name", "tag", "start_s", "end_s", "parent", "self_s"],
            spans=[[n, g, t0 - t_ref, t1 - t_ref, p, s]
                   for (n, g, t0, t1, p), s in zip(self.spans, selfs)])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
