"""TrialRunner: determinism across worker counts, failure surfacing."""

import functools
import math
import os
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry, TraceRecorder
from repro.runtime import (
    ResilientRunner,
    RetryPolicy,
    TrialAggregate,
    TrialExecutionError,
    TrialRunner,
)
from repro.runtime.executors import local as local_backend_module


# ----------------------------------------------------------------------
# Module-level trial functions (process pools must be able to pickle them)
# ----------------------------------------------------------------------
def _normal_trial(ctx):
    return float(ctx.rng().normal())


def _index_trial(ctx):
    return ctx.index


def _pair_trial(ctx, scale):
    return (ctx.index, float(ctx.rng().uniform()) * scale)


def _failing_trial(ctx):
    if ctx.index == 3:
        raise ValueError("trial 3 is cursed")
    return float(ctx.index)


def _late_failing_trial(ctx):
    if ctx.index == 3:
        time.sleep(0.5)  # chunks past the failure complete meanwhile
        raise ValueError("trial 3 is cursed")
    return float(ctx.index)


def _crashing_trial(ctx):
    if ctx.index == 2:
        os._exit(17)  # simulates a segfaulting / OOM-killed worker
    return float(ctx.index)


def _sleeping_trial(ctx):
    time.sleep(30.0)
    return 0.0


def _slow_tail_trial(ctx):
    if ctx.index >= 2:
        time.sleep(30.0)
    return float(ctx.index)


def _telemetry_trial(ctx):
    value = float(ctx.rng().uniform())
    if ctx.metrics is not None:
        hist = ctx.metrics.histogram("runtime.values", bounds=(0.25, 0.5, 0.75))
        ctx.metrics.counter("runtime.trials").inc()
        ctx.metrics.gauge("runtime.last_value").set(value)
        hist.observe(value)
    if ctx.trace is not None:
        ctx.trace.event(float(ctx.index), "runtime.trial", value=value)
    return value


class TestDeterminism:
    """The acceptance bar: any worker count, bitwise-identical results."""

    def test_workers_1_vs_4_identical_aggregates(self):
        serial = TrialRunner(workers=1).run(_normal_trial, 64, seed=123)
        parallel = TrialRunner(workers=4).run(_normal_trial, 64, seed=123)
        assert serial == parallel
        assert serial.trials == 64

    def test_chunk_size_does_not_change_results(self):
        baseline = TrialRunner(workers=1).run(_normal_trial, 50, seed=9)
        for chunk_size in (1, 3, 7, 50):
            agg = TrialRunner(workers=2, chunk_size=chunk_size).run(
                _normal_trial, 50, seed=9
            )
            assert agg == baseline

    def test_map_preserves_trial_order(self):
        results = TrialRunner(workers=4).map(_index_trial, 40, seed=0)
        assert results == list(range(40))

    def test_map_with_args_matches_serial(self):
        serial = TrialRunner(workers=1).map(_pair_trial, 30, seed=4, args=(2.5,))
        parallel = TrialRunner(workers=3).map(_pair_trial, 30, seed=4, args=(2.5,))
        assert serial == parallel

    def test_per_trial_streams_are_independent(self):
        values = TrialRunner(workers=1).map(_normal_trial, 20, seed=1)
        assert len(set(values)) == 20  # no stream reuse across trials

    def test_seed_changes_results(self):
        a = TrialRunner(workers=1).run(_normal_trial, 16, seed=0)
        b = TrialRunner(workers=1).run(_normal_trial, 16, seed=1)
        assert a != b


class TestAggregate:
    def test_statistics_of_known_values(self):
        agg = TrialAggregate()
        for v in (0.0, 1.0, 2.0, 3.0):
            agg.add(v)
        assert agg.trials == 4
        assert agg.mean == pytest.approx(1.5)
        assert agg.losses == 3  # strictly positive outcomes
        assert agg.loss_fraction == pytest.approx(0.75)
        assert agg.variance == pytest.approx(np.var([0, 1, 2, 3], ddof=1))
        assert agg.ci95_halfwidth == pytest.approx(
            1.96 * math.sqrt(agg.variance / 4),
        )
        assert agg.minimum == 0.0 and agg.maximum == 3.0

    def test_merge_matches_single_pass(self):
        left, right, full = TrialAggregate(), TrialAggregate(), TrialAggregate()
        values = [0.5, -1.0, 2.0, 0.0, 3.5]
        for v in values[:2]:
            left.add(v)
            full.add(v)
        for v in values[2:]:
            right.add(v)
            full.add(v)
        left.merge(right)
        assert left == full

    def test_empty_aggregate(self):
        agg = TrialAggregate()
        assert math.isnan(agg.mean)
        assert agg.variance == 0.0


class TestValidation:
    def test_non_positive_trials_rejected(self):
        runner = TrialRunner()
        with pytest.raises(ValueError, match="trials"):
            runner.run(_index_trial, 0)
        with pytest.raises(ValueError, match="trials"):
            runner.map(_index_trial, -5)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TrialRunner(workers=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            TrialRunner(chunk_size=0)


class TestFailureSurfacing:
    #: The runner under test; the subclasses below rerun every case on
    #: the resilient configuration of the same scheduler.
    runner = TrialRunner

    def test_trial_exception_serial(self):
        with pytest.raises(TrialExecutionError, match="trial 3.*ValueError"):
            self.runner(workers=1).run(_failing_trial, 8, seed=0)

    def test_trial_exception_parallel_includes_worker_traceback(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            self.runner(workers=2, chunk_size=2).run(_failing_trial, 8, seed=0)
        message = str(excinfo.value)
        assert "trial 3" in message
        assert "ValueError: trial 3 is cursed" in message
        assert "worker traceback" in message

    def test_worker_crash_surfaces(self):
        with pytest.raises(TrialExecutionError, match="crashed"):
            self.runner(workers=2, chunk_size=2).run(_crashing_trial, 8, seed=0)

    def test_timeout_surfaces(self):
        runner = self.runner(workers=2, chunk_size=1)
        start = time.monotonic()
        with pytest.raises(TrialExecutionError, match="timed out"):
            runner.run(_sleeping_trial, 4, seed=0, timeout=0.5)
        # The stuck workers were terminated, not awaited.
        assert time.monotonic() - start < 20.0


class _SalvageCases:
    """Failures carry the completed prefix instead of discarding it."""

    runner = TrialRunner

    def test_timeout_salvages_completed_prefix(self):
        runner = self.runner(workers=2, chunk_size=1)
        with pytest.raises(TrialExecutionError) as excinfo:
            runner.run(_slow_tail_trial, 6, seed=0, timeout=2.0)
        exc = excinfo.value
        assert exc.partial_values == [0.0, 1.0]
        assert exc.completed_trials == 2
        assert "salvaged 2 completed trials" in str(exc)
        agg = exc.partial_aggregate()
        assert agg is not None
        assert agg.trials == 2
        assert agg.total == 1.0

    def test_serial_trial_exception_salvages_earlier_chunks(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            self.runner(workers=1, chunk_size=2).run(_failing_trial, 8, seed=0)
        exc = excinfo.value
        assert exc.partial_values == [0.0, 1.0]
        assert exc.completed_trials == 2

    def test_parallel_trial_exception_salvages_earlier_chunks(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            self.runner(workers=2, chunk_size=2).run(_failing_trial, 8, seed=0)
        exc = excinfo.value
        assert exc.partial_values == [0.0, 1.0]
        assert exc.completed_trials == 2

    def test_pooled_failure_salvages_prefix_without_gaps(self):
        """Chunks completed past the failed one are not salvaged:
        partial_values[i] is always trial i's result."""
        with pytest.raises(TrialExecutionError) as excinfo:
            self.runner(workers=2, chunk_size=2).run(
                _late_failing_trial, 8, seed=0
            )
        exc = excinfo.value
        assert exc.partial_values == [0.0, 1.0]
        assert exc.completed_trials == 2
        assert "salvaged 2 completed trials" in str(exc)

    def test_worker_crash_salvage_mentioned_in_message(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            self.runner(workers=2, chunk_size=2).run(_crashing_trial, 8, seed=0)
        exc = excinfo.value
        assert exc.partial_values is not None
        assert "salvaged" in str(exc)


class TestSalvage(_SalvageCases):
    def test_partial_aggregate_none_for_structured_values(self):
        exc = TrialExecutionError("boom", partial_values=[(1, 2), (3, 4)])
        assert exc.completed_trials == 2
        assert exc.partial_aggregate() is None

    def test_no_salvage_means_empty_defaults(self):
        exc = TrialExecutionError("boom")
        assert exc.partial_values is None
        assert exc.completed_trials == 0
        assert exc.partial_aggregate() is None


#: A resilient runner with one attempt per chunk and no journal: the
#: configuration a plain TrialRunner is, so both must fail alike.
_one_attempt_resilient = functools.partial(
    ResilientRunner, policy=RetryPolicy(max_attempts=1)
)


class TestFailureSurfacingResilient(TestFailureSurfacing):
    runner = _one_attempt_resilient


class TestSalvageResilient(_SalvageCases):
    runner = _one_attempt_resilient


class TestFallback:
    def test_pool_unavailable_falls_back_in_process(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(
            local_backend_module, "ProcessPoolExecutor", ExplodingPool
        )
        baseline = TrialRunner(workers=1).run(_normal_trial, 24, seed=5)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            fallback = TrialRunner(workers=4).run(_normal_trial, 24, seed=5)
        assert fallback == baseline

    def test_single_chunk_never_opens_a_pool(self, monkeypatch):
        def _forbidden(*args, **kwargs):
            raise AssertionError("pool must not be created for one chunk")

        monkeypatch.setattr(local_backend_module, "ProcessPoolExecutor", _forbidden)
        agg = TrialRunner(workers=8, chunk_size=100).run(_index_trial, 10, seed=0)
        assert agg.trials == 10


class TestTelemetry:
    """Metrics/trace collection inherits the any-worker-count contract."""

    def test_metrics_and_trace_identical_across_worker_counts(self):
        collected = {}
        for workers in (1, 4):
            metrics = MetricsRegistry()
            trace = TraceRecorder()
            TrialRunner(workers=workers, chunk_size=3).map(
                _telemetry_trial, 20, seed=5, metrics=metrics, trace=trace
            )
            collected[workers] = (metrics.snapshot(), trace.records)
        assert collected[1] == collected[4]
        snapshot, records = collected[1]
        assert snapshot["counters"]["runtime.trials"] == 20.0
        assert snapshot["histograms"]["runtime.values"]["count"] == 20
        assert [r["trial"] for r in records] == list(range(20))

    def test_gauge_merge_keeps_final_trial_value(self):
        """The merged gauge must equal trial 19's value, not a chunk's."""
        for workers in (1, 4):
            metrics = MetricsRegistry()
            values = TrialRunner(workers=workers, chunk_size=3).map(
                _telemetry_trial, 20, seed=5, metrics=metrics
            )
            merged = metrics.snapshot()["gauges"]["runtime.last_value"]
            assert merged == values[-1]

    def test_run_collects_telemetry_too(self):
        metrics = MetricsRegistry()
        agg = TrialRunner(workers=2, chunk_size=4).run(
            _telemetry_trial, 10, seed=1, metrics=metrics
        )
        assert agg.trials == 10
        assert metrics.snapshot()["counters"]["runtime.trials"] == 10.0

    def test_trial_sees_no_sinks_unless_requested(self):
        values = TrialRunner(workers=1).map(_telemetry_trial, 3, seed=0)
        assert len(values) == 3  # ctx.metrics / ctx.trace stayed None

    def test_last_telemetry_populated(self):
        runner = TrialRunner(workers=2, chunk_size=4)
        assert runner.last_telemetry is None
        runner.run(_normal_trial, 10, seed=0)
        telemetry = runner.last_telemetry
        assert telemetry is not None
        assert telemetry.trials == 10
        assert telemetry.chunks == 3
        assert telemetry.workers == 2
        assert telemetry.wall_seconds > 0.0
        assert telemetry.worker_seconds > 0.0
        assert telemetry.trials_per_second > 0.0
