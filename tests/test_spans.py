"""Span tracing: deterministic ids, the span discipline, runner
instrumentation, and cross-host attribution over the TCP backend.

The observability acceptance bar has two halves.  First, the ops trace
must *explain* a campaign: every sweep/chunk/attempt interval lands as a
schema-v2 span whose ids are derivable offline (same campaign, same
ids, on any host).  Second, observing must be free: result artifacts
from a traced run are byte-identical to an unobserved one, at any
worker or host count.
"""

import os
import time

import pytest
from _procs import spawn_worker_procs

from repro.obs import MetricsRegistry, TraceRecorder, validate_record
from repro.obs.spans import SpanTracer, derive_id
from repro.obs.trace import SPAN_SCHEMA_VERSION, TRACE_SCHEMA_VERSION
from repro.runtime import (
    ResilientRunner,
    RetryPolicy,
    TcpWorkQueueBackend,
    TrialRunner,
)
from repro.runtime.executors.base import worker_label

FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


# ----------------------------------------------------------------------
# Module-level trial functions (TCP workers must be able to pickle them)
# ----------------------------------------------------------------------
def _value_trial(ctx):
    return float(ctx.rng().random())


def _telemetry_trial(ctx, marker=None):
    value = float(ctx.rng().random())
    if ctx.metrics is not None:
        ctx.metrics.counter("sim.trials_done").inc()
    if ctx.trace is not None:
        ctx.trace.event(0.0, "sim.trial_done", value=value)
    return value


def _failing_trial(ctx, marker):
    """Trial 3 fails until the marker file appears."""
    if ctx.index == 3 and not os.path.exists(marker):
        raise RuntimeError("transient outage")
    return float(ctx.rng().random())


def _spans(runner, kind=None):
    records = [
        r for r in runner.ops_trace.records
        if r.get("v") == SPAN_SCHEMA_VERSION
    ]
    if kind is not None:
        records = [r for r in records if r["kind"] == kind]
    return records


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
class TestDeriveId:
    def test_deterministic_and_structural(self):
        assert derive_id("a", 1) == derive_id("a", 1)
        assert derive_id("a", 1) != derive_id("a", 2)
        # The separator keeps ("ab", "c") and ("a", "bc") distinct.
        assert derive_id("ab", "c") != derive_id("a", "bc")

    def test_id_shape(self):
        span_id = derive_id("anything")
        assert len(span_id) == 16
        int(span_id, 16)  # lowercase hex


class TestSpanTracer:
    def test_seed_trace_first_wins(self):
        tracer = SpanTracer(TraceRecorder())
        first = tracer.seed_trace("campaign", 7)
        assert tracer.seed_trace("sweep", 0) == first
        assert tracer.trace_id == first == derive_id("campaign", 7)

    def test_scoped_span_records_on_exit(self):
        clock = _FakeClock()
        rec = TraceRecorder()
        tracer = SpanTracer(rec, clock=clock)
        tracer.seed_trace("t", 1)
        with tracer.span("span.sweep", key=("sweep", 1), trials=8):
            clock.now = 2.5
        (record,) = rec.records
        validate_record(record)
        assert record["v"] == SPAN_SCHEMA_VERSION
        assert record["kind"] == "span.sweep"
        assert record["ts"] == 0.0
        assert record["parent"] is None
        assert record["span"] == tracer.span_id("span.sweep", "sweep", 1)
        assert record["data"] == {"trials": 8, "status": "ok", "dur_s": 2.5}

    def test_nested_span_parents_to_enclosing(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, clock=_FakeClock())
        with tracer.span("span.sweep", key=("sweep", 1)) as outer:
            with tracer.span("span.checkpoint_write", key=("ckpt", 1)):
                pass
        inner, _ = rec.records  # inner closes (and records) first
        assert inner["parent"] == outer.span_id

    def test_exception_records_error_status_and_propagates(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, clock=_FakeClock())
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("span.sweep", key=("sweep", 1)):
                raise RuntimeError("boom")
        (record,) = rec.records
        assert record["data"]["status"] == "error"

    def test_emit_clamps_and_returns_precomputable_id(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, clock=_FakeClock())
        tracer.seed_trace("t", 1)
        parent = tracer.span_id("span.chunk", 0, 4)
        span_id = tracer.emit(
            "span.attempt", start=-1.0, duration=-0.5,
            key=(0, 4, 1), parent=parent, attempt=1,
        )
        (record,) = rec.records
        validate_record(record)
        assert span_id == tracer.span_id("span.attempt", 0, 4, 1)
        assert record["parent"] == parent
        assert record["ts"] == 0.0
        assert record["data"]["dur_s"] == 0.0

    def test_same_seed_reproduces_every_id(self):
        def run():
            rec = TraceRecorder()
            tracer = SpanTracer(rec, clock=_FakeClock())
            tracer.seed_trace("fn", "sha", 16, 3)
            with tracer.span("span.sweep", key=("sweep", 1)):
                tracer.emit(
                    "span.chunk", start=0.0, duration=1.0, key=(1, 0)
                )
            return [(r["kind"], r["span"], r["parent"]) for r in rec.records]

        assert run() == run()


# ----------------------------------------------------------------------
class TestRunnerSpans:
    def test_map_emits_sweep_chunk_attempt_hierarchy(self):
        runner = TrialRunner(workers=1, chunk_size=4)
        list(runner.map(_value_trial, 8, seed=5))
        for record in _spans(runner):
            validate_record(record)
        (sweep,) = _spans(runner, "span.sweep")
        chunks = _spans(runner, "span.chunk")
        attempts = _spans(runner, "span.attempt")
        assert len(chunks) == len(attempts) == 2
        assert sweep["parent"] is None
        assert {c["parent"] for c in chunks} == {sweep["span"]}
        assert {a["parent"] for a in attempts} == {c["span"] for c in chunks}

    def test_in_process_attempts_attributed_to_this_process(self):
        runner = TrialRunner(workers=1)
        list(runner.map(_value_trial, 4, seed=5))
        hosts = {a["data"]["host"] for a in _spans(runner, "span.attempt")}
        assert hosts == {worker_label()}

    def test_span_ids_deterministic_across_runs(self):
        def ids():
            runner = TrialRunner(workers=1, chunk_size=4)
            list(runner.map(_value_trial, 8, seed=5))
            return [
                (r["kind"], r["span"], r["parent"]) for r in _spans(runner)
            ]

        assert ids() == ids()

    def test_result_trace_stays_pure_v1(self):
        runner = TrialRunner(workers=1)
        trace = TraceRecorder()
        runner.run(
            _telemetry_trial, 4, seed=5,
            metrics=MetricsRegistry(), trace=trace,
        )
        assert {r["v"] for r in trace.records} == {TRACE_SCHEMA_VERSION}
        assert _spans(runner)  # spans went to the ops trace instead

    def test_throughput_counters_track_planned_and_completed(self):
        runner = TrialRunner(workers=1, chunk_size=4)
        list(runner.map(_value_trial, 10, seed=5))
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.trials_planned"] == 10
        assert counters["runtime.trials_completed"] == 10


class TestResilientSpans:
    def test_checkpoint_writes_are_spans_under_the_sweep(self, tmp_path):
        runner = ResilientRunner(
            workers=1, chunk_size=4, checkpoint=tmp_path / "ck.jsonl"
        )
        try:
            runner.run(_value_trial, 8, seed=5)
        finally:
            runner.close()
        (sweep,) = _spans(runner, "span.sweep")
        writes = _spans(runner, "span.checkpoint_write")
        assert len(writes) == 2
        assert {w["parent"] for w in writes} == {sweep["span"]}
        assert all(w["data"]["status"] == "ok" for w in writes)

    def test_failed_attempt_recorded_with_error_status(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = ResilientRunner(workers=1, chunk_size=4, policy=FAST)
        try:
            with pytest.raises(Exception):
                runner.run(_failing_trial, 8, seed=5, args=(marker,))
            open(marker, "w").close()
            runner.run(_failing_trial, 8, seed=5, args=(marker,))
        finally:
            runner.close()
        attempts = _spans(runner, "span.attempt")
        failed = [a for a in attempts if a["data"]["status"] == "error"]
        assert failed
        assert all(a["data"]["host"] is None for a in failed)
        # Failed attempts parent under their chunk's *precomputed* span
        # id (trial 3 lives in chunk 0 of the first resilient sweep) --
        # even though that chunk never completed there, so its record
        # only exists as the attempts' parent pointer.
        chunk_id = runner.spans.span_id("span.chunk", 0, 0)
        assert {a["parent"] for a in failed} == {chunk_id}


class TestTcpHostAttribution:
    def test_two_hosts_attributed_and_results_byte_identical(self):
        """The PR's acceptance bar: a 2-host TCP campaign yields result
        artifacts byte-identical to workers=1 while the coordinator's
        ops trace attributes chunk attempts to both remote hosts."""
        reference = TrialRunner(workers=1)
        metrics_ref, trace_ref = MetricsRegistry(), TraceRecorder()
        agg_ref = reference.run(
            _telemetry_trial, 24, seed=11,
            metrics=metrics_ref, trace=trace_ref,
        )

        backend = TcpWorkQueueBackend(connect_grace=60.0)
        backend.start()
        procs = spawn_worker_procs(backend.address, 2)
        runner = ResilientRunner(workers=2, chunk_size=3, backend=backend)
        metrics, trace = MetricsRegistry(), TraceRecorder()
        try:
            # Capacity counts live remote workers (it reads 0 until any
            # join), so at 2 both hosts have said hello and the first
            # two leases go to different hosts.
            deadline = time.monotonic() + 60.0
            while backend.capacity() < 2:
                assert time.monotonic() < deadline, "workers never joined"
                time.sleep(0.02)
            agg = runner.run(
                _telemetry_trial, 24, seed=11, metrics=metrics, trace=trace,
            )
        finally:
            backend.shutdown()
        for proc in procs:
            proc.join(timeout=30.0)

        assert (agg, metrics.snapshot(), trace.records) == (
            agg_ref, metrics_ref.snapshot(), trace_ref.records
        )
        attempts = _spans(runner, "span.attempt")
        hosts = {a["data"]["host"] for a in attempts}
        assert len(hosts) >= 2, f"expected >= 2 worker hosts, got {hosts}"
        assert worker_label() not in hosts  # all ran remotely
        for record in _spans(runner):
            validate_record(record)
