"""In-memory spans around calls into the program's public functions.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span, an operation id shared by every span of one benchmark
operation, and the phase of the run it belongs to.  Spans stay in memory
and are written out once, when the run ends.  Tracing is off in the runs
that report end-to-end numbers: no wrapper is installed at all.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else -1,
            "op": self.op,
            "phase": self.phase,
        }
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``on_result(span, result)`` may attach counts to the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out

        setattr(owner, attr, traced)

    # -- reading spans ------------------------------------------------------
    def select(self, name: str, phase: str | None = None) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s["name"] == name and (phase is None or s["phase"] == phase)
        ]

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return s["end"] - s["start"]

    def self_times(self, indices: list[int]) -> list[float]:
        """Durations minus the time covered by each span's direct children
        (children of one span run one after another on its thread)."""
        covered: dict[int, float] = {}
        for j, s in enumerate(self.spans):
            if s["parent"] >= 0:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + self.duration(j)
        return [self.duration(i) - covered.get(i, 0.0) for i in indices]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (q in (0, 1))."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(max(1, math.ceil(q * len(values))), len(values)) - 1]


# Throughput is the median of the rates of consecutive slices of this
# length: a host stall slows the slices it falls in, not the whole window.
QPS_SLICE_S = 0.25


def slice_qps(done_s: list[float]) -> float:
    """Median rate over the window's whole slices of ``QPS_SLICE_S`` seconds.

    ``done_s`` are the completion times of the timed queries, in seconds from
    the window's start.  A slice's rate is the number of queries completed in
    it over the time from the last completion before it to its last one."""
    rates: list[float] = []
    prev, n, edge = 0.0, 0, QPS_SLICE_S
    last = prev
    for t in done_s:
        while t >= edge:
            if n:
                rates.append(n / (last - prev))
                prev = last
            n, edge = 0, edge + QPS_SLICE_S
        n, last = n + 1, t
    return statistics.median(rates) if rates else 0.0
