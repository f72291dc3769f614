"""Benchmark-side spans around the calls the benchmark makes into each layer.

Nothing here reaches inside the program: spans are recorded by the
benchmark around public calls (a sweep, a campaign, a service job), by a
pass-through :class:`TimingExecutor` handed to a runner's ``backend=``,
by wrappers patched onto public methods for the length of a traced pass
(:func:`patched`), and by converting the runner's own ``ops_trace``
attempt spans onto this clock.  Spans stay in memory and are written
out once, when the run ends.

A layer's *self time* is the time its spans cover minus the part of
each span that its child spans cover; the root span's self time is the
wall-clock no layer accounts for.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import json
import pickle
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from concurrent.futures import Future
from pathlib import Path
from typing import Any

#: Layer name of the benchmark's own root span (unattributed time).
ROOT_LAYER = "bench"


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    trace: str

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


class Tracer:
    """In-memory span store on the ``time.monotonic`` clock.

    :meth:`span` (a context manager) is for the thread that drives the
    run; :meth:`add` records a finished span from any thread.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack: list[int] = []
        self._trace = ""
        self._next = 0

    @contextlib.contextmanager
    def span(self, layer: str, name: str, trace: str | None = None) -> Iterator[int]:
        """Open a span for the body; one ``trace`` id per sweep or job."""
        previous = self._trace
        if trace is not None:
            self._trace = trace
        start = time.monotonic()
        span_id = self._reserve()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            end = time.monotonic()
            self._store(Span(span_id, parent, layer, name, start, end, self._trace))
            self._trace = previous

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def add(
        self, layer: str, name: str, start: float, end: float, parent: int | None = None,
    ) -> int:
        span_id = self._reserve()
        self._store(Span(span_id, parent, layer, name, start, end, self._trace))
        return span_id

    def _reserve(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _store(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    def nest(self, child_layer: str, parent_layer: str) -> None:
        """Re-parent ``child_layer`` spans into the ``parent_layer`` span
        whose interval holds their start (in-process calls observed by a
        wrapper cannot know which runner chunk they ran in)."""
        parents = sorted(
            (s for s in self.spans if s.layer == parent_layer), key=lambda s: s.start
        )
        starts = [s.start for s in parents]
        for span in self.spans:
            if span.layer != child_layer:
                continue
            i = bisect.bisect_right(starts, span.start) - 1
            if i >= 0 and parents[i].end >= span.start:
                span.parent = parents[i].id

    def self_times(self) -> dict[str, float]:
        """Layer -> summed self time (span time not covered by children)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
            )
            totals[span.layer] += max(0.0, span.duration - covered)
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


class NullTracer(Tracer):
    """Records nothing: the tracer of untraced passes."""

    enabled = False

    @contextlib.contextmanager
    def span(self, layer: str, name: str, trace: str | None = None) -> Iterator[int]:
        yield 0

    def add(
        self, layer: str, name: str, start: float, end: float, parent: int | None = None,
    ) -> int:
        return 0


NULL_TRACER = NullTracer()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


@dataclasses.dataclass
class CallStats:
    """Count and summed seconds of one wrapped method, per tag."""

    calls: dict[str, int] = dataclasses.field(default_factory=lambda: defaultdict(int))
    seconds: dict[str, float] = dataclasses.field(default_factory=lambda: defaultdict(float))

    def mean_us(self, tag: str | None = None) -> float:
        calls = sum(self.calls.values()) if tag is None else self.calls.get(tag, 0)
        secs = sum(self.seconds.values()) if tag is None else self.seconds.get(tag, 0.0)
        return secs / calls * 1e6 if calls else 0.0


@contextlib.contextmanager
def patched(
    cls: type, method: str, tracer: Tracer, layer: str, stats: CallStats,
    tag: Callable[[], str],
) -> Iterator[None]:
    """Time every call of ``cls.method`` in this process while the body runs."""
    original = getattr(cls, method)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            end = time.monotonic()
            key = tag()
            stats.calls[key] += 1
            stats.seconds[key] += end - start
            tracer.add(layer, method, start, end)

    setattr(cls, method, wrapper)
    try:
        yield
    finally:
        setattr(cls, method, original)


def runner_attempts(
    runner: Any, since: int, born: float, tracer: Tracer, parent: int | None, layer: str,
    kind: str = "span.attempt",
) -> None:
    """Copy the runner's ``kind`` span records (from index ``since``) onto
    the benchmark clock; ``born`` is ``time.monotonic()`` taken just before
    the runner was built."""
    for record in runner.ops_trace.records[since:]:
        if record.get("kind") == kind:
            start = born + float(record["ts"])
            end = start + float(record["data"].get("dur_s", 0.0))
            tracer.add(layer, kind.removeprefix("span."), start, end, parent=parent)


def ops_span_seconds(records: list[dict[str, Any]], kind: str) -> tuple[int, float]:
    """``(count, summed dur_s)`` of one span kind among ops-trace records."""
    count, total = 0, 0.0
    for record in records:
        if record.get("kind") == kind:
            count += 1
            total += float(record["data"].get("dur_s", 0.0))
    return count, total


class TimingExecutor:
    """A pass-through ``ChunkExecutor`` that times dispatch from outside.

    For each chunk it records the pickled size of the job and of the
    returned payload, and a span from submit to the future resolving,
    with the payload's own execution ``seconds`` as a child span; the
    remainder is dispatch, transport and pickling.  ``make_inner`` builds
    the wrapped backend on :meth:`start` when there is none; :meth:`shutdown`
    drops it, so shutting down after each sweep mirrors a runner that owns
    a fresh pool per sweep.
    """

    def __init__(
        self, make_inner: Callable[[], Any], tracer: Tracer, compute_layer: str,
        layer: str = "runtime.executors",
    ) -> None:
        self._make_inner = make_inner
        self._inner: Any = None
        self._tracer = tracer
        self._compute_layer = compute_layer
        self._layer = layer
        self.job_bytes: list[int] = []
        self.payload_bytes: list[int] = []
        self.roundtrip_s: list[float] = []

    @property
    def name(self) -> str:
        return self._inner.name if self._inner is not None else "timing"

    def start(self) -> None:
        if self._inner is None:
            self._inner = self._make_inner()
        self._inner.start()

    def submit(self, job: Any) -> Future[Any]:
        self.job_bytes.append(len(pickle.dumps(job)))
        parent = self._tracer.current()
        submitted = time.monotonic()
        future: Future[Any] = self._inner.submit(job)
        future.add_done_callback(lambda f: self._done(f, submitted, parent))
        return future

    def _done(self, future: Future[Any], submitted: float, parent: int | None) -> None:
        done = time.monotonic()
        if future.cancelled() or future.exception() is not None:
            return
        payload = future.result()
        seconds = float(getattr(payload, "seconds", 0.0))
        self.payload_bytes.append(len(pickle.dumps(payload)))
        self.roundtrip_s.append(max(0.0, done - submitted - seconds))
        span = self._tracer.add(self._layer, "chunk", submitted, done, parent=parent)
        self._tracer.add(self._compute_layer, "compute", done - seconds, done, parent=span)

    def capacity(self) -> int:
        return int(self._inner.capacity())

    def drain_events(self) -> list[Any]:
        return list(self._inner.drain_events()) if self._inner is not None else []

    def rebuild(self) -> bool:
        return bool(self._inner.rebuild())

    def reset(self) -> None:
        if self._inner is not None:
            self._inner.reset()

    def shutdown(self, wait: bool = True) -> None:
        if self._inner is not None:
            self._inner.shutdown(wait=wait)
            self._inner = None
