"""Parallel Monte Carlo trial execution (the sweep engine behind §3).

Every headline figure of the paper is a Monte Carlo sweep -- burst PDL
grids, accelerated pool-year campaigns, chaos scenarios -- and all of them
share one shape: *N independent trials, each consuming its own random
stream, reduced to a small aggregate*.  :class:`TrialRunner` is that shape
as infrastructure:

* **Deterministic for any worker count.**  Trial ``i`` always receives the
  ``i``-th child of ``numpy.random.SeedSequence(seed).spawn(trials)``, and
  aggregation always folds results in trial order, so ``workers=1`` and
  ``workers=16`` produce bitwise-identical results for the same seed.
* **Chunked dispatch.**  Trials are grouped into contiguous chunks so the
  per-task IPC cost amortizes over many cheap trials; chunk results are
  consumed *in index order* (out-of-order completions are buffered), which
  keeps the streaming fold deterministic.
* **Graceful degradation.**  ``workers=1`` never touches multiprocessing;
  if the process pool cannot be created at all (sandboxes, missing
  semaphores), the runner warns once and falls back to in-process
  execution with identical results.
* **Pluggable placement.**  *Where* chunks execute is delegated to a
  :class:`~repro.runtime.executors.ChunkExecutor` backend -- the default
  local process pool or a multi-host TCP work queue (``backend=``) --
  and because chunk results are pure data folded in trial order, the
  backend choice can never change a result byte.
* **Failure surfacing.**  A trial that raises, a worker process that dies,
  or a sweep that exceeds ``timeout`` all raise
  :class:`TrialExecutionError` naming the trial range involved (with the
  worker-side traceback when there is one) instead of hanging or
  returning partial data.

Trial functions receive a :class:`TrialContext` (trial index + spawned
``SeedSequence``, plus optional per-trial telemetry sinks) followed by the
``args`` tuple, and must be defined at module top level so the process
pool can pickle them.

**Telemetry.**  Passing ``metrics=``/``trace=`` to :meth:`TrialRunner.run`
or :meth:`TrialRunner.map` hands every trial a private
:class:`~repro.obs.MetricsRegistry` slice and
:class:`~repro.obs.TraceRecorder` via its context; workers ship these back
with the chunk results and the parent folds them *in trial order*, so the
merged metrics snapshot and the concatenated trace stream are identical
for any worker count.  Wall-clock facts (which are *not* deterministic)
are kept apart in :attr:`TrialRunner.last_telemetry`.
"""

from __future__ import annotations

import dataclasses
import math
import re
import time
import warnings
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.context import BaseContext
from typing import Any

import numpy as np

from repro.obs import MetricsRegistry, SpanTracer, TraceRecorder
from repro.obs.progress import ProgressTracker

from .executors.base import (
    BackendUnavailable,
    ChunkExecutor,
    ChunkFailure,
    ChunkJob,
    ChunkPayload,
    run_chunk,
)
from .executors.local import LocalProcessBackend

__all__ = [
    "TrialContext",
    "TrialAggregate",
    "TrialExecutionError",
    "TrialRunner",
    "RunTelemetry",
]


class TrialExecutionError(RuntimeError):
    """A Monte Carlo trial (or its worker) failed or timed out.

    The error carries whatever the sweep completed before dying so
    callers can salvage it instead of discarding hours of work:

    * :attr:`partial_values` -- results of every trial absorbed before
      the failure, in trial order (``None`` when nothing was salvaged).
      Under :class:`TrialRunner` this is a contiguous prefix; under
      :class:`~repro.runtime.resilience.ResilientRunner` it may contain
      gaps where a chunk was still outstanding.
    * :attr:`completed_trials` -- how many trials those values cover.

    :meth:`partial_aggregate` folds scalar salvage into a
    :class:`TrialAggregate` (the same reduction :meth:`TrialRunner.run`
    would have applied).
    """

    def __init__(
        self,
        message: str,
        *,
        partial_values: Sequence[Any] | None = None,
        completed_trials: int | None = None,
    ) -> None:
        super().__init__(message)
        self.partial_values: list[Any] | None = (
            list(partial_values) if partial_values is not None else None
        )
        if completed_trials is None:
            completed_trials = (
                len(self.partial_values) if self.partial_values is not None else 0
            )
        self.completed_trials = int(completed_trials)

    def partial_aggregate(self) -> TrialAggregate | None:
        """Salvaged scalar outcomes as a TrialAggregate, if foldable."""
        if not self.partial_values:
            return None
        agg = TrialAggregate()
        try:
            for value in self.partial_values:
                agg.add(float(value))
        except (TypeError, ValueError):
            return None  # structured map() payloads have no scalar fold
        return agg


@dataclasses.dataclass(frozen=True)
class TrialContext:
    """What one trial gets to work with: its index and its own stream.

    ``seed_sequence`` is the ``index``-th spawned child of the sweep's root
    ``SeedSequence`` -- statistically independent of every other trial's
    stream regardless of which worker runs it.  Trial functions that need a
    legacy integer seed (e.g. to feed an event-driven simulator's ``run``)
    may use ``index`` instead; both choices are deterministic.
    """

    index: int
    seed_sequence: np.random.SeedSequence
    #: Registry for this trial's worker chunk, or ``None`` when the sweep
    #: was started without ``metrics=``.  Counters/histograms sum and
    #: gauges keep the last written value, so chunk boundaries are
    #: invisible in the merged snapshot.
    metrics: MetricsRegistry | None = None
    #: Per-trial recorder (``trial`` preset to :attr:`index`), or ``None``
    #: when the sweep was started without ``trace=``.
    trace: TraceRecorder | None = None

    def rng(self) -> np.random.Generator:
        """A fresh generator on this trial's private stream."""
        return np.random.default_rng(self.seed_sequence)


@dataclasses.dataclass
class TrialAggregate:
    """Streaming reduction of scalar trial outcomes: mean, CI, loss counts.

    ``losses`` counts trials with a strictly positive outcome -- for PDL-
    style indicators (0 = survived, >0 = some loss probability) this is the
    number of trials that observed any data-loss exposure.
    """

    trials: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    losses: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        v = float(value)
        self.trials += 1
        self.total += v
        self.total_sq += v * v
        if v > 0.0:
            self.losses += 1
        self.minimum = min(self.minimum, v)
        self.maximum = max(self.maximum, v)

    def merge(self, other: TrialAggregate) -> None:
        """Fold another aggregate in (right operand must be the later one)."""
        self.trials += other.trials
        self.total += other.total
        self.total_sq += other.total_sq
        self.losses += other.losses
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.trials if self.trials else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the trial outcomes."""
        if self.trials < 2:
            return 0.0
        spread = self.total_sq - self.total * self.total / self.trials
        return max(0.0, spread) / (self.trials - 1)

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance / self.trials) if self.trials else math.nan

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% confidence interval."""
        return 1.96 * self.std_error

    @property
    def loss_fraction(self) -> float:
        return self.losses / self.trials if self.trials else math.nan


@dataclasses.dataclass(frozen=True)
class RunTelemetry:
    """Wall-clock facts about the last sweep (not part of the results).

    ``worker_seconds`` is the sum of in-chunk execution time across all
    workers; comparing it to ``wall_seconds`` shows the achieved overlap.
    """

    trials: int
    chunks: int
    workers: int
    wall_seconds: float
    worker_seconds: float

    @property
    def trials_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.trials / self.wall_seconds


# Chunk execution now lives in repro.runtime.executors.base (shared by
# every backend).  The private aliases keep two things working: existing
# imports, and -- critically -- *old checkpoint journals*, whose pickled
# chunk payloads reference these names by module path.
_ChunkError = ChunkFailure
_ChunkPayload = ChunkPayload
_run_chunk = run_chunk


def _metric_segment(type_name: str) -> str:
    """An exception type name as one metric-name segment (lowercase
    snake case): ``RuntimeError`` -> ``runtime_error``, ``OSError`` ->
    ``os_error``."""
    snake = re.sub(r"([A-Z]+)([A-Z][a-z])", r"\1_\2", type_name)
    snake = re.sub(r"([a-z0-9])([A-Z])", r"\1_\2", snake).lower()
    snake = re.sub(r"[^a-z0-9_]", "_", snake).lstrip("_0123456789")
    return snake or "exception"


class TrialRunner:
    """Fan independent Monte Carlo trials out over a process pool.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs everything in-process;
        ``None`` uses ``os.cpu_count()``.
    chunk_size:
        Trials per dispatched task.  Defaults to a size that gives each
        worker a handful of chunks (load balancing) without making tasks
        so small that IPC dominates.  Has no effect on results.
    mp_context:
        Optional ``multiprocessing`` context for the pool (e.g.
        ``multiprocessing.get_context("fork")``).
    backend:
        Optional :class:`~repro.runtime.executors.ChunkExecutor`
        deciding *where* chunks run (e.g. a
        :class:`~repro.runtime.executors.TcpWorkQueueBackend`
        coordinating remote hosts).  ``None`` (the default) keeps the
        built-in local path: in-process for ``workers=1``, a local
        process pool otherwise.  The runner never shuts down a caller-
        provided backend -- ownership stays with the caller.
    batch:
        ``"auto"`` (the default), ``"on"``, or ``"off"``: whether chunks
        may use the vectorized batch engine (:mod:`repro.sim.batch`) for
        trial functions that have one.  Purely a speed knob -- results
        are bit-identical in every mode.  ``auto`` skips chunks below
        the implementation's minimum size and re-runs a chunk scalar
        if its batch attempt raises; ``on`` forces batching whenever an
        implementation exists and reports a batch error as a trial
        failure.  How trials split between the vector path and scalar
        demotion is reported in :attr:`ops_metrics`
        (``sim.batch_trials`` / ``sim.batch_demotions``, split by reason
        as ``sim.batch_demotions.<reason>``), and ``auto`` fallbacks
        as ``sim.batch_fallbacks`` (one per chunk), split by exception
        type as ``sim.batch_fallbacks.<type>``.
    """

    def __init__(
        self,
        workers: int | None = 1,
        chunk_size: int | None = None,
        mp_context: BaseContext | None = None,
        backend: ChunkExecutor | None = None,
        batch: str = "auto",
    ) -> None:
        if workers is None:
            import os

            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if batch not in ("auto", "on", "off"):
            raise ValueError(
                f"batch must be 'auto', 'on', or 'off', got {batch!r}"
            )
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.backend = backend
        self.batch = batch
        #: Wall-clock facts about the most recent ``run``/``map`` call.
        self.last_telemetry: RunTelemetry | None = None
        #: Operational telemetry (batch engine usage, and -- under
        #: ``ResilientRunner`` -- recovery counters).  Never folded into
        #: result artifacts.
        self.ops_metrics = MetricsRegistry()
        #: Operational trace: span records (schema v2) plus recovery
        #: events.  Runner-owned, wall-clock timed -- never merged into a
        #: result trace, so result artifacts stay byte-identical for any
        #: worker count.
        self.ops_trace = TraceRecorder()
        self._born = time.monotonic()
        #: Span tracer over :attr:`ops_trace` on the runner's operational
        #: clock (seconds since construction).
        self.spans = SpanTracer(self.ops_trace, clock=self._elapsed)
        #: Optional progress sink (a :class:`~repro.obs.ProgressTracker`
        #: or :class:`~repro.obs.ProgressReporter`); the runner feeds it
        #: sweep/chunk completions.  ``None`` disables the feed.
        self.progress: ProgressTracker | None = None
        self._sweeps = 0

    @property
    def backend_name(self) -> str:
        """Telemetry label of the executor backend in use."""
        return self.backend.name if self.backend is not None else "local"

    def _elapsed(self) -> float:
        """Operational clock: seconds since the runner was constructed."""
        return max(0.0, time.monotonic() - self._born)

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        trials: int,
        seed: int = 0,
        args: tuple[Any, ...] = (),
        timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> TrialAggregate:
        """Run ``trials`` trials of ``fn`` and reduce to a TrialAggregate.

        ``fn(ctx, *args)`` must return a scalar.  The fold happens in
        trial order as chunks stream in, so the aggregate is bitwise
        independent of ``workers`` and ``chunk_size``.  When ``metrics``
        or ``trace`` is given, per-chunk telemetry is folded into it in
        the same order (same invariance).
        """
        agg = TrialAggregate()
        for chunk in self._iter_chunks(
            fn, trials, seed, args, timeout, metrics, trace
        ):
            for value in chunk:
                agg.add(value)
        return agg

    def map(
        self,
        fn: Callable[..., Any],
        trials: int,
        seed: int = 0,
        args: tuple[Any, ...] = (),
        timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> list[Any]:
        """Run ``trials`` trials and return their results in trial order.

        Use this when trials produce structured payloads (simulation
        results, per-trial statistics) that need a custom reduction.
        """
        results: list[Any] = []
        for chunk in self._iter_chunks(
            fn, trials, seed, args, timeout, metrics, trace
        ):
            results.extend(chunk)
        return results

    # ------------------------------------------------------------------
    def _chunk_bounds(self, trials: int) -> list[tuple[int, int]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            # ~4 chunks per worker, capped so one task never hoards work.
            size = max(1, min(-(-trials // (self.workers * 4)), 128))
        return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def _iter_chunks(
        self,
        fn: Callable[..., Any],
        trials: int,
        seed: int,
        args: tuple[Any, ...],
        timeout: float | None,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> Iterator[list[Any]]:
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        self._sweeps += 1
        sweep = self._sweeps
        # First seeding wins, so an enclosing campaign's structural seed
        # (see repro.faults.campaign) takes precedence over this default.
        self.spans.seed_trace(
            f"{fn.__module__}:{getattr(fn, '__qualname__', repr(fn))}",
            seed,
            trials,
        )
        with self.spans.span(
            "span.sweep",
            key=("sweep", sweep),
            trials=trials,
            seed=seed,
            backend=self.backend_name,
        ):
            yield from self._dispatch_chunks(
                sweep, fn, trials, seed, args, timeout, metrics, trace
            )

    def _note_chunk_done(
        self,
        sweep: int,
        index: int,
        lo: int,
        hi: int,
        payload: ChunkPayload,
        *,
        attempt: int = 1,
    ) -> None:
        """Emit the chunk + attempt spans and feed the progress sink.

        Retrospective by design: a chunk's execution interval is only
        known once its payload arrives, so the spans are emitted complete
        (:meth:`SpanTracer.emit`) with ``start = now - payload.seconds``
        on the coordinator's clock.  Host attribution comes from the
        payload (``getattr`` covers payloads unpickled from pre-span
        checkpoint journals).
        """
        host = getattr(payload, "host", None)
        now = self._elapsed()
        start = max(0.0, now - payload.seconds)
        chunk_span = self.spans.span_id("span.chunk", sweep, index)
        self.spans.emit(
            "span.attempt",
            start=start,
            duration=payload.seconds,
            key=(sweep, index, attempt),
            parent=chunk_span,
            lo=lo,
            hi=hi,
            attempt=attempt,
            host=host,
            status="ok",
        )
        self.spans.emit(
            "span.chunk",
            start=start,
            duration=payload.seconds,
            key=(sweep, index),
            lo=lo,
            hi=hi,
            attempts=attempt,
            host=host,
        )
        self.ops_metrics.counter("runtime.trials_completed").inc(hi - lo)
        if self.progress is not None:
            self.progress.chunk_done(hi - lo, host=host, busy_s=payload.seconds)

    def _dispatch_chunks(
        self,
        sweep: int,
        fn: Callable[..., Any],
        trials: int,
        seed: int,
        args: tuple[Any, ...],
        timeout: float | None,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> Iterator[list[Any]]:
        children = np.random.SeedSequence(seed).spawn(trials)
        bounds = self._chunk_bounds(trials)
        collect = (metrics is not None, trace is not None)
        began = time.perf_counter()
        worker_seconds = 0.0
        self.ops_metrics.counter("runtime.trials_planned").inc(trials)
        if self.progress is not None:
            self.progress.begin_sweep(trials, len(bounds))
        #: Values of every chunk absorbed so far, in trial order; attached
        #: to TrialExecutionError so callers can salvage the completed
        #: prefix of a sweep that times out or crashes partway through.
        salvaged: list[Any] = []

        def absorb(
            result: _ChunkPayload | _ChunkError, index: int, lo: int, hi: int
        ) -> list[Any]:
            nonlocal worker_seconds
            payload = self._check_chunk(result, salvaged)
            worker_seconds += payload.seconds
            if metrics is not None and payload.metrics is not None:
                metrics.merge(payload.metrics)
            if trace is not None:
                trace.extend(payload.records)
            self._absorb_batch_stats(payload)
            self._note_chunk_done(sweep, index, lo, hi, payload)
            salvaged.extend(payload.values)
            return payload.values

        def finish() -> None:
            self.last_telemetry = RunTelemetry(
                trials=trials,
                chunks=len(bounds),
                workers=self.workers,
                wall_seconds=time.perf_counter() - began,
                worker_seconds=worker_seconds,
            )
            if self.progress is not None:
                self.progress.end_sweep()

        executor: ChunkExecutor | None = None
        owns_backend = False
        if self.backend is not None:
            executor = self.backend
        elif self.workers > 1 and len(bounds) > 1:
            executor = LocalProcessBackend(
                max_workers=min(self.workers, len(bounds)),
                mp_context=self.mp_context,
            )
            owns_backend = True
        if executor is not None:
            try:
                executor.start()
            except BackendUnavailable as exc:  # sandboxes without semaphores
                warnings.warn(
                    f"{exc}; running trials in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
                executor = None

        if executor is None:
            for index, (lo, hi) in enumerate(bounds):
                yield absorb(
                    run_chunk(
                        fn, lo, tuple(children[lo:hi]), args, *collect,
                        batch=self.batch,
                    ),
                    index,
                    lo,
                    hi,
                )
            finish()
            return

        deadline = None if timeout is None else time.monotonic() + timeout
        futures = []
        try:
            futures = [
                executor.submit(
                    ChunkJob(
                        index=index,
                        lo=lo,
                        hi=hi,
                        fn=fn,
                        children=tuple(children[lo:hi]),
                        args=args,
                        collect=collect,
                        batch=self.batch,
                        trace_id=self.spans.trace_id,
                    )
                )
                for index, (lo, hi) in enumerate(bounds)
            ]
            # Consume in index order: buffering out-of-order completions in
            # the executor keeps the downstream fold deterministic.
            for index, ((lo, hi), future) in enumerate(zip(bounds, futures)):
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                try:
                    chunk = future.result(timeout=remaining)
                except TimeoutError as exc:
                    executor.reset()
                    raise TrialExecutionError(
                        f"trial sweep timed out after {timeout:g}s waiting "
                        f"for trials [{lo}, {hi}) "
                        f"(salvaged {len(salvaged)} completed trials)",
                        partial_values=salvaged,
                    ) from exc
                except (BrokenProcessPool, BackendUnavailable) as exc:
                    raise TrialExecutionError(
                        f"worker process crashed while running trials "
                        f"[{lo}, {hi}); the pool is no longer usable "
                        f"(salvaged {len(salvaged)} completed trials)",
                        partial_values=salvaged,
                    ) from exc
                yield absorb(chunk, index, lo, hi)
            finish()
        finally:
            if owns_backend:
                executor.shutdown(wait=True)
            elif futures and not all(f.done() for f in futures):
                # Caller-owned backend with work still in flight (early
                # generator close, timeout, chunk failure): abandon it so
                # the backend does not keep executing a dead sweep.
                executor.reset()

    def _absorb_batch_stats(self, payload: ChunkPayload) -> None:
        """Fold a chunk's batch-engine split into the ops telemetry.

        Operational only -- never part of result artifacts, so batch=on
        and batch=off runs stay byte-identical.  Demotions also count
        per reason as ``sim.batch_demotions.<reason>``, summing to
        ``sim.batch_demotions``, and fallbacks per exception type as
        ``sim.batch_fallbacks.<type>`` (snake case: ``RuntimeError`` ->
        ``runtime_error``), summing to ``sim.batch_fallbacks``.
        ``getattr`` covers payloads unpickled from checkpoint journals
        written before these fields existed.
        """
        batched, demoted = getattr(payload, "batch", (0, 0))
        if batched:
            self.ops_metrics.counter("sim.batch_trials").inc(batched)
        if demoted:
            self.ops_metrics.counter("sim.batch_demotions").inc(demoted)
        for reason, count in getattr(payload, "batch_demotions", {}).items():
            self.ops_metrics.counter(f"sim.batch_demotions.{reason}").inc(count)
        error = getattr(payload, "batch_fallback_error", None)
        if error is not None:
            self.ops_metrics.counter("sim.batch_fallbacks").inc()
            self.ops_metrics.counter(
                f"sim.batch_fallbacks.{_metric_segment(error)}"
            ).inc()

    @staticmethod
    def _check_chunk(
        chunk: ChunkPayload | ChunkFailure,
        salvaged: Sequence[Any] | None = None,
    ) -> ChunkPayload:
        if isinstance(chunk, ChunkFailure):
            raise TrialExecutionError(
                f"trial {chunk.index} raised {chunk.message}\n"
                f"--- worker traceback ---\n{chunk.worker_traceback}",
                partial_values=salvaged,
            )
        return chunk
