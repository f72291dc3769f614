"""repro.obs: structured observability for the simulation stack.

Every layer of the simulator can explain *why* it produced a number --
which failure burst opened a network repair, how many bytes crossed racks,
where the wall-clock went -- through three stdlib-only primitives:

* :class:`MetricsRegistry` -- named counters, gauges, and fixed-bucket
  histograms.  Registries are picklable and mergeable, and merging per-chunk
  registries in trial order reproduces the single-process result exactly,
  so metrics inherit the runtime's any-worker-count determinism.
* :class:`TraceRecorder` -- an append-only stream of schema-versioned
  span/event records (disk failure -> repair plan -> network stage ->
  completion) serialized to JSONL.  Records are plain dicts with a fixed
  key order, so a trial's trace bytes are identical for any worker count.
* :class:`Stopwatch` -- wall-clock accounting for whole runs: the single
  source of elapsed/throughput numbers for the CLI and the benchmark
  harness, so the two can never drift apart.

On top of these, the *distributed campaign* layer (all operational --
never folded into result artifacts):

* :class:`SpanTracer` (:mod:`repro.obs.spans`) -- hierarchical span
  tracing (campaign -> sweep -> chunk -> attempt) with deterministic
  ids, recorded as schema-v2 records in the runner-owned ops trace.
* :class:`ProgressReporter` (:mod:`repro.obs.progress`) -- streaming
  trials/sec, ETA, and per-host utilization, rendered as a throttled
  status line and a ``--progress-jsonl`` stream.
* :func:`to_openmetrics` / :class:`MetricsExporter`
  (:mod:`repro.obs.export`) -- OpenMetrics text exposition of any
  registry plus the ``--metrics-port`` pull endpoint.

See ``docs/observability.md`` for the record schemas, the metric naming
conventions, and measured overhead.
"""

from __future__ import annotations

from .export import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsExporter,
    parse_openmetrics,
    to_openmetrics,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import ProgressReporter, ProgressSnapshot, ProgressTracker
from .report import summarize_spans, summarize_trace
from .spans import Span, SpanTracer, derive_id
from .timing import Stopwatch
from .trace import (
    SPAN_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    read_jsonl,
    validate_record,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceRecorder",
    "TRACE_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "read_jsonl",
    "write_jsonl",
    "validate_record",
    "Stopwatch",
    "summarize_trace",
    "summarize_spans",
    "Span",
    "SpanTracer",
    "derive_id",
    "ProgressTracker",
    "ProgressReporter",
    "ProgressSnapshot",
    "MetricsExporter",
    "to_openmetrics",
    "parse_openmetrics",
    "OPENMETRICS_CONTENT_TYPE",
]
