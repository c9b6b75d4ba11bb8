"""Spans for the traced benchmark run, kept in memory and written at the end.

A span records (name, start, end, parent, job id), an optional kind that
splits one call by what it was given, and a few integer counters.  The
benchmark opens one span around every public call it makes into a pugkit
module; the span name is "<module>.<call>", and the module part is the
layer the time is charged to.  `NullTracer` is the untraced run's
stand-in: its spans do nothing, so the same job code runs in both.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("tracer", "name", "kind", "start", "end", "parent", "job",
                 "counts", "error")

    def __init__(self, tracer: "Tracer", name: str, kind: str | None,
                 parent: int | None, job: str | None, counts: dict):
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.parent = parent
        self.job = job
        self.counts = counts
        self.start = self.end = 0.0
        self.error: str | None = None

    def add(self, **counts: int) -> None:
        for key, val in counts.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def __enter__(self) -> "Span":
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None

    def span(self, name: str, kind: str | None = None, **counts: int) -> Span:
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, kind, parent, self._job, counts)

    def job(self, job_id: str) -> Span:
        """Root span of one job; spans opened inside it carry its id."""
        self._job = job_id
        return self.span("bench.job")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.seconds
        return [sp.seconds - c for sp, c in zip(self.spans, child)]

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "name": sp.name, "kind": sp.kind, "start": sp.start - t0,
                    "end": sp.end - t0, "parent": sp.parent, "job": sp.job,
                    "counts": sp.counts, "error": sp.error}) + "\n")


class _NullSpan:
    def add(self, **counts: int) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    def span(self, name: str, kind: str | None = None, **counts: int) -> _NullSpan:
        return _NULL_SPAN

    def job(self, job_id: str) -> _NullSpan:
        return _NULL_SPAN


def summarize(tracer: Tracer, keep) -> dict[str, dict]:
    """Per span name, and per "<name>.<kind>" for spans with a kind: self
    seconds, calls, errors and summed counters, over the spans for which
    keep(span) holds."""
    out: dict[str, dict] = defaultdict(
        lambda: {"s": 0.0, "calls": 0, "errors": 0, "counts": defaultdict(int)})
    for sp, self_s in zip(tracer.spans, tracer.self_times()):
        if not keep(sp):
            continue
        keys = (sp.name,) if sp.kind is None else (sp.name, f"{sp.name}.{sp.kind}")
        for key in keys:
            row = out[key]
            row["s"] += self_s
            row["calls"] += 1
            row["errors"] += sp.error is not None
            for counter, val in sp.counts.items():
                row["counts"][counter] += val
    return out
