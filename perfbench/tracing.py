"""Spans and stream counts for the traced run.

Spans are recorded from outside the program, around the benchmark's calls
into each module's public functions, and kept in memory until the run ends.
The stream counts come from the benchmark's own copy of the
``streams.stream_iter`` trampoline, run over the public ``Stream`` values
that ``query_stream``, ``answers_stream`` and ``raw_stream`` return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<what>"; the layer is the module called into
    query: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, query: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, query, parent, 0.0)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> float:
        span.end = time.perf_counter()
        popped = self._open.pop()
        assert popped == span.id, "spans must close innermost first"
        return span.end - span.start

    def add(
        self, name: str, query: str, start: float, end: float, parent: Span | None = None
    ) -> None:
        """A closed span with given bounds, by default under the innermost open one."""
        if parent is not None:
            pid = parent.id
        else:
            pid = self._open[-1] if self._open else None
        self.spans.append(Span(len(self.spans), name, query, pid, start, end))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer: each span's duration less what its children cover.

    Children of one span never overlap (the run is single-threaded and
    sequential), so the covered part is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - covered.get(s.id, 0.0)
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


@dataclass
class Drain:
    answers: int
    forces: int
    first_answer_at: float | None  # perf_counter time of the first answer


def drain_counted(stream, limit: int | None) -> Drain:
    """Pull answers exactly as ``stream_iter`` under ``islice`` does, counting.

    A force is one call of a delayed stream by the trampoline; delays that
    the combinators force internally are part of that call.
    """
    answers = forces = 0
    first = None
    s = stream
    while s is not None and (limit is None or answers < limit):
        while callable(s):
            s = s()
            forces += 1
        if s is None:
            break
        _, s = s
        answers += 1
        if first is None:
            first = time.perf_counter()
    return Drain(answers, forces, first)
