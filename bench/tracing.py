"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, unit, failed). Names are
``<module>.<function>``, the module being the switchsynth module that owns
the public function called. Nothing inside the library is instrumented:
spans sit only at the benchmark's own call sites. With tracing off,
``call`` is a plain function call and ``span`` a null context.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None
    failed: bool


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.unit: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.unit, False)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds, failures.

        Self time is a span's duration minus the time its children cover;
        spans on one thread nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for span, covered in zip(self.spans, child_time):
            row = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0, "failed": 0})
            duration = span.end - span.start
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - covered
            row["failed"] += span.failed
        return out

    def write(self, path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "unit", "failed"],
               "spans": [[s.name, s.start, s.end, s.parent, s.unit, s.failed]
                         for s in self.spans],
               "summary": self.summary()}
        with open(path, "w") as handle:
            json.dump(doc, handle)
