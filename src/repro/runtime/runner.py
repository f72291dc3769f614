"""Parallel Monte Carlo trial execution (the sweep engine behind §3).

Every headline figure of the paper is a Monte Carlo sweep -- burst PDL
grids, accelerated pool-year campaigns, chaos scenarios -- and all of them
share one shape: *N independent trials, each consuming its own random
stream, reduced to a small aggregate*.  :class:`TrialRunner` is that shape
as infrastructure, and its scheduler is the only one in the package:
:class:`~repro.runtime.resilience.ResilientRunner` is the same scheduler
plus a checkpoint journal and a wider retry budget.

* **Deterministic for any worker count.**  Trial ``i`` always draws from
  ``numpy.random.SeedSequence(seed, spawn_key=(i,))`` -- the ``i``-th
  child ``SeedSequence(seed).spawn`` would hand out, built lazily by
  whichever process runs the trial -- and aggregation always folds
  results in trial order, so ``workers=1`` and ``workers=16`` produce
  bitwise-identical results for the same seed.  A chunk ships only
  ``(seed, lo, hi)``, never a list of streams.
* **Chunked dispatch.**  Trials are grouped into contiguous chunks so the
  per-task IPC cost amortizes over many cheap trials; chunks complete in
  any order and are folded *in index order* once the sweep is done,
  which keeps the fold deterministic.
* **Graceful degradation, decided in one place.**  ``workers=1`` never
  touches multiprocessing.  A backend that cannot start, cannot be
  rebuilt, or fails a chunk with
  :class:`~repro.runtime.executors.BackendUnavailable` (a TCP
  coordinator with no live worker) is left for the next rung of the
  local path: a local process pool when ``workers > 1``, in-process
  otherwise.  The chunks it held are requeued without an attempt
  charge, and each step down warns and is counted
  (``runtime.backend_fallbacks``, a ``backend.fallback`` trace event
  with its reason).  Chunks are pure, so results stay identical.
* **Pluggable placement.**  *Where* chunks execute is delegated to a
  :class:`~repro.runtime.executors.ChunkExecutor` backend -- the default
  local process pool or a multi-host TCP work queue (``backend=``) --
  and because chunk results are pure data folded in trial order, the
  backend choice can never change a result byte.  Backend facts
  (steals, worker deaths) are folded into the operational telemetry.
* **Failure surfacing.**  A plain runner gives every chunk one attempt
  (``RetryPolicy(max_attempts=1)``): a trial that raises, a worker
  process that dies, or a sweep that exceeds ``timeout`` all raise
  :class:`TrialExecutionError` naming the trial range involved (with the
  worker-side traceback when there is one) and carrying the completed
  trial-order prefix, instead of hanging or returning partial data.

Trial functions receive a :class:`TrialContext` (trial index + the
sweep seed its stream is keyed by, plus optional per-trial telemetry
sinks) followed by the ``args`` tuple, and must be defined at module top
level so the process pool can pickle them.

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
import hashlib
import math
import pickle
import re
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.context import BaseContext
from typing import Any

import numpy as np

from repro.core.config import RNG_STREAM
from repro.obs import MetricsRegistry, SpanTracer, TraceRecorder
from repro.obs.progress import ProgressTracker

from .executors.base import (
    BackendUnavailable,
    ChunkExecutor,
    ChunkJob,
    ChunkPayload,
)
from .executors.local import LocalProcessBackend

__all__ = [
    "RetryPolicy",
    "SweepStopped",
    "TrialContext",
    "TrialAggregate",
    "TrialExecutionError",
    "TrialRunner",
    "RunTelemetry",
    "args_digest",
]

_Bounds = tuple[int, int]


class TrialExecutionError(RuntimeError):
    """A Monte Carlo trial (or its worker) failed or timed out.

    The error carries whatever the sweep completed before dying so
    callers can salvage it instead of discarding hours of work:

    * :attr:`partial_values` -- the completed trial-order prefix:
      ``partial_values[i]`` is trial ``i``'s result, for every trial of
      the contiguous run of completed chunks that starts at trial 0
      (``None`` when nothing was salvaged).  Chunks that completed past
      the first gap are not included; a checkpoint journal still keeps
      them for resume.
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


class SweepStopped(RuntimeError):
    """A sweep was stopped cooperatively via :meth:`TrialRunner.request_stop`.

    Not a failure: every chunk completed before the stop is journaled (when
    a checkpoint is configured), so the sweep resumes from where it left
    off -- this is how ``mlec-sim serve`` checkpoints running jobs during a
    graceful drain instead of discarding their progress.
    """


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a chunk unrecoverable.

    ``max_attempts`` counts *total* attempts (first try included), so
    ``max_attempts=1`` disables retries.  Backoff before attempt ``k+1``
    is ``backoff_base * backoff_factor**(k-1)`` capped at
    ``backoff_max``, shrunk by up to ``jitter_fraction`` using a hash of
    ``(chunk_index, attempt)`` -- deterministic, so two runs of the same
    failing sweep pause identically (no ``random()``-style scheduling
    nondeterminism sneaks into the harness).
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max < 0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if not 0 <= self.jitter_fraction <= 1:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )

    def backoff_seconds(self, attempt: int, chunk_index: int) -> float:
        """Delay before retrying ``chunk_index`` after ``attempt`` failures."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        digest = hashlib.sha256(f"{chunk_index}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return delay * (1.0 - self.jitter_fraction * fraction)


def args_digest(args: tuple[Any, ...]) -> str:
    """Stable fingerprint of a sweep's args tuple for resume validation.

    The same digest keys the ``mlec-sim serve`` dedupe cache: two sweep
    submissions with identical ``(fn, args, trials, seed)`` hash to the
    same journal header and therefore the same cache entry.
    """
    try:
        blob = pickle.dumps(args, protocol=4)
    except Exception:
        blob = repr(args).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass(frozen=True)
class TrialContext:
    """What one trial gets to work with: its index and its own stream.

    Trial ``index`` of a sweep seeded ``seed`` draws from
    ``SeedSequence(seed, spawn_key=(index,))``: statistically independent
    of every other trial's stream, and the same whichever worker builds
    it.  Every trial function draws through :meth:`rng` (or hands
    :meth:`seed_sequence` to a simulator's ``run``); none derives a
    stream from an integer of its own.
    """

    index: int
    #: The sweep's root seed; the trial's stream is keyed under it.
    seed: int
    #: Registry for this trial's worker chunk, or ``None`` when the sweep
    #: was started without ``metrics=``.  Counters/histograms sum and
    #: gauges keep the last written value, so chunk boundaries are
    #: invisible in the merged snapshot.
    metrics: MetricsRegistry | None = None
    #: Per-trial recorder (``trial`` preset to :attr:`index`), or ``None``
    #: when the sweep was started without ``trace=``.
    trace: TraceRecorder | None = None

    def seed_sequence(self, key: int | None = None) -> np.random.SeedSequence:
        """The sweep's stream ``key`` (by default this trial's own).

        Stream ``i`` is the ``i``-th child ``SeedSequence(seed)`` would
        spawn, built without spawning the ``i`` streams before it.  Trials of one
        sweep that pass the same ``key`` draw the same numbers: that is
        how paired comparisons get common random numbers.
        """
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.index if key is None else key,)
        )

    def rng(self) -> np.random.Generator:
        """A fresh generator on this trial's own stream."""
        return np.random.default_rng(self.seed_sequence())


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


def _metric_segment(type_name: str) -> str:
    """An exception type name as one metric-name segment (lowercase
    snake case): ``RuntimeError`` -> ``runtime_error``, ``OSError`` ->
    ``os_error``."""
    snake = re.sub(r"([A-Z]+)([A-Z][a-z])", r"\1_\2", type_name)
    snake = re.sub(r"([a-z0-9])([A-Z])", r"\1_\2", snake).lower()
    snake = re.sub(r"[^a-z0-9_]", "_", snake).lstrip("_0123456789")
    return snake or "exception"


@dataclasses.dataclass
class _Sweep:
    """One sweep in flight: what its chunks run and how far it got."""

    ordinal: int
    fn: Callable[..., Any]
    args: tuple[Any, ...]
    seed: int
    collect: tuple[bool, bool]
    batch: str
    trace_id: str
    timeout: float | None
    deadline: float | None
    #: Completed chunks by bounds, in completion order (chunks loaded
    #: from a journal first); folded in trial order once all are in.
    payloads: dict[_Bounds, ChunkPayload]
    #: Failed attempts so far, by chunk index.
    attempts: dict[int, int] = dataclasses.field(default_factory=dict)

    def job(self, index: int, bounds: _Bounds) -> ChunkJob:
        lo, hi = bounds
        return ChunkJob(
            index=index,
            lo=lo,
            hi=hi,
            fn=self.fn,
            seed=self.seed,
            args=self.args,
            collect=self.collect,
            batch=self.batch,
            trace_id=self.trace_id,
        )


class TrialRunner:
    """Fan independent Monte Carlo trials out over a process pool.

    The one chunk scheduler of the package: it dispatches chunks to a
    backend (or runs them in-process), charges failures against a
    :class:`RetryPolicy`, folds backend events into the operational
    telemetry, and folds results in trial order.  A plain runner gives
    every chunk a single attempt, has no per-chunk watchdog, and keeps
    no journal; :class:`~repro.runtime.resilience.ResilientRunner`
    configures the same scheduler with a retry budget, a watchdog, and
    a checkpoint journal.

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
        process pool otherwise.  A backend that degrades hands the rest
        of the sweep to that local path.  The runner never shuts down a
        caller-provided backend -- ownership stays with the caller.
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
        #: Per-chunk retry budget: one attempt unless a subclass widens it.
        self.policy = RetryPolicy(max_attempts=1)
        #: Seconds a dispatched chunk may run before it is charged a
        #: failure (pool path only); ``None`` disables the watchdog.
        self.chunk_timeout: float | None = None
        #: Wall-clock facts about the most recent ``run``/``map`` call.
        self.last_telemetry: RunTelemetry | None = None
        #: Operational telemetry (batch engine usage, throughput, and
        #: recovery counters).  Never folded into result artifacts.
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
        #: 0-based ordinal of the current sweep (the journal's sweep key).
        self._sweep = -1
        self._stop = threading.Event()

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
        trial order, so the aggregate is bitwise independent of
        ``workers`` and ``chunk_size``.  When ``metrics`` or ``trace`` is
        given, per-chunk telemetry is folded into it in the same order
        (same invariance).
        """
        agg = TrialAggregate()
        for value in self._execute(
            "run", fn, trials, seed, args, timeout, metrics, trace
        ):
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
        return self._execute("map", fn, trials, seed, args, timeout, metrics, trace)

    def request_stop(self) -> None:
        """Ask the running sweep to stop at the next chunk boundary.

        Thread-safe and idempotent.  The sweep raises
        :class:`SweepStopped` once every in-flight chunk has either
        completed (and been journaled, when a journal is configured) or
        been abandoned; chunks are never torn mid-trial, so a stopped
        sweep resumes byte-identically from its checkpoint.  This is the
        graceful-drain primitive the service daemon uses on SIGTERM.
        """
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        """Whether :meth:`request_stop` has been called for this sweep."""
        return self._stop.is_set()

    def clear_stop(self) -> None:
        """Re-arm a stopped runner so a later sweep can run."""
        self._stop.clear()

    def _check_stop(self, sweep: _Sweep) -> None:
        if self._stop.is_set():
            raise SweepStopped(
                f"sweep stopped on request ({self._salvage_note(sweep.payloads)})"
            )

    # ------------------------------------------------------------------
    # Core scheduling
    # ------------------------------------------------------------------
    def _chunk_size(self, trials: int) -> int:
        if self.chunk_size is not None:
            return min(self.chunk_size, trials)
        # ~4 chunks per worker, capped so one task never hoards work.
        return max(1, min(-(-trials // (self.workers * 4)), 128))

    def _execute(
        self,
        mode: str,
        fn: Callable[..., Any],
        trials: int,
        seed: int,
        args: tuple[Any, ...],
        timeout: float | None,
        metrics: MetricsRegistry | None,
        trace: TraceRecorder | None,
    ) -> list[Any]:
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        self._sweep += 1
        fn_module = getattr(fn, "__module__", "?")
        fn_name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
        header: dict[str, Any] = {
            "mode": mode,
            "trials": trials,
            "seed": seed,
            "chunk": self._chunk_size(trials),
            "fn": f"{fn_module}:{fn_name}",
            "args_sha256": args_digest(args),
            "collect_metrics": metrics is not None,
            "collect_trace": trace is not None,
            "rng_stream": RNG_STREAM,
        }
        # Deterministic trace identity: the same fingerprint that guards
        # resume validation, so a resumed run's spans join the original
        # run's trace.  First seeding wins (an enclosing campaign's).
        self.spans.seed_trace(header["fn"], header["args_sha256"], trials, seed)
        with self.spans.span(
            "span.sweep",
            key=("sweep", self._sweep),
            trials=trials,
            seed=seed,
            mode=mode,
            backend=self.backend_name,
        ):
            # May replace header["chunk"] with a journal's recorded size.
            payloads = self._begin_sweep(self._sweep, header)
            chunk = int(header["chunk"])
            bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
            pending = [(i, b) for i, b in enumerate(bounds) if b not in payloads]
            self.ops_metrics.counter("runtime.trials_planned").inc(trials)
            if self.progress is not None:
                self.progress.begin_sweep(
                    trials,
                    len(bounds),
                    salvaged_trials=sum(len(p.values) for p in payloads.values()),
                    salvaged_chunks=len(payloads),
                )

            began = time.perf_counter()
            sweep = _Sweep(
                ordinal=self._sweep,
                fn=fn,
                args=args,
                seed=seed,
                collect=(metrics is not None, trace is not None),
                batch=self.batch,
                trace_id=self.spans.trace_id,
                timeout=timeout,
                deadline=None if timeout is None else time.monotonic() + timeout,
                payloads=payloads,
            )
            # The placement ladder: the caller's backend, then the local
            # path (a pool for more than one chunk, else in-process).  A
            # rung that degrades leaves its unfinished chunks to the next.
            remaining = pending
            if remaining and self.backend is not None:
                self._execute_pooled(sweep, remaining, self.backend)
                remaining = [(i, b) for i, b in remaining if b not in payloads]
            if self._wants_local_pool(remaining):
                pool = LocalProcessBackend(
                    max_workers=min(self.workers, len(remaining)),
                    mp_context=self.mp_context,
                )
                self._execute_pooled(sweep, remaining, pool)
                remaining = [(i, b) for i, b in remaining if b not in payloads]
            if remaining:
                self._execute_serial(sweep, remaining)
            if self.progress is not None:
                self.progress.end_sweep()

        self.last_telemetry = RunTelemetry(
            trials=trials,
            chunks=len(bounds),
            workers=self.workers,
            wall_seconds=time.perf_counter() - began,
            worker_seconds=sum(p.seconds for p in payloads.values()),
        )
        # Deterministic fold: chunk order == trial order, independent of
        # completion order, retries, and how much came from a journal.
        out: list[Any] = []
        for b in bounds:
            payload = payloads[b]
            if metrics is not None and payload.metrics is not None:
                metrics.merge(payload.metrics)
            if trace is not None:
                trace.extend(payload.records)
            self._absorb_batch_stats(payload)
            out.extend(payload.values)
        return out

    # ------------------------------------------------------------------
    # Journal hooks: a plain runner keeps no journal
    # ------------------------------------------------------------------
    def _begin_sweep(
        self, sweep: int, header: dict[str, Any]
    ) -> dict[_Bounds, ChunkPayload]:
        """Chunks already completed for this sweep, keyed by bounds."""
        return {}

    def _record_chunk(
        self, sweep: int, bounds: _Bounds, payload: ChunkPayload
    ) -> None:
        """Make one completed chunk durable (nothing to do without a journal)."""

    # ------------------------------------------------------------------
    # Completion and failure accounting
    # ------------------------------------------------------------------
    def _note_chunk_done(
        self, sweep: _Sweep, index: int, bounds: _Bounds, payload: ChunkPayload
    ) -> None:
        """Record a completed chunk, emit its spans, feed the progress sink.

        Retrospective by design: a chunk's execution interval is only
        known once its payload arrives, so the spans are emitted complete
        (:meth:`SpanTracer.emit`) with ``start = now - payload.seconds``
        on the coordinator's clock.  Host attribution comes from the
        payload.
        """
        lo, hi = bounds
        sweep.payloads[bounds] = payload
        self._record_chunk(sweep.ordinal, bounds, payload)
        attempt = sweep.attempts.get(index, 0) + 1
        host = payload.host
        now = self._elapsed()
        start = max(0.0, now - payload.seconds)
        chunk_span = self.spans.span_id("span.chunk", sweep.ordinal, index)
        self.spans.emit(
            "span.attempt",
            start=start,
            duration=payload.seconds,
            key=(sweep.ordinal, index, attempt),
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
            key=(sweep.ordinal, index),
            lo=lo,
            hi=hi,
            attempts=attempt,
            host=host,
        )
        self.ops_metrics.counter("runtime.trials_completed").inc(hi - lo)
        if self.progress is not None:
            self.progress.chunk_done(hi - lo, host=host, busy_s=payload.seconds)

    @staticmethod
    def _salvage_values(payloads: dict[_Bounds, ChunkPayload]) -> list[Any]:
        """Values of the completed chunks contiguous from trial 0.

        ``values[i]`` is trial ``i``'s result: the walk stops at the
        first chunk that has not completed, so later completions (which
        a journal still keeps) never shift a value off its trial.
        """
        values: list[Any] = []
        for lo, hi in sorted(payloads):
            if lo != len(values):
                break
            values.extend(payloads[(lo, hi)].values)
        return values

    def _salvage_note(self, payloads: dict[_Bounds, ChunkPayload]) -> str:
        return f"salvaged {len(self._salvage_values(payloads))} completed trials"

    def _sweep_timeout_error(self, sweep: _Sweep) -> TrialExecutionError:
        return TrialExecutionError(
            f"trial sweep timed out after {sweep.timeout:g}s "
            f"({self._salvage_note(sweep.payloads)})",
            partial_values=self._salvage_values(sweep.payloads),
        )

    def _note_chunk_failure(
        self,
        sweep: _Sweep,
        index: int,
        bounds: _Bounds,
        reason: str,
        worker_traceback: str | None = None,
        duration: float = 0.0,
        inflight: dict[Future[Any], tuple[int, _Bounds, float]] | None = None,
    ) -> float:
        """Charge one failure against a chunk.

        ``duration`` is how long the failed attempt ran on the
        coordinator's clock when known (the pool path tracks dispatch
        times; a worker-reported failure arrives without one).  Returns
        the backoff delay before the next attempt, or raises
        :class:`TrialExecutionError` (with salvage attached) once the
        policy is exhausted -- after letting the pool path's ``inflight``
        chunks ahead of this one finish (:meth:`_settle_ahead`).
        """
        lo, hi = bounds
        failures = sweep.attempts.get(index, 0) + 1
        sweep.attempts[index] = failures
        if failures >= self.policy.max_attempts:
            if inflight is not None:
                self._settle_ahead(sweep, index, inflight)
            message = (
                f"chunk [{lo}, {hi}) failed {failures} time(s) and the retry "
                f"policy allows {self.policy.max_attempts} attempt(s); "
                f"last failure: {reason} ({self._salvage_note(sweep.payloads)})"
            )
            if worker_traceback:
                message += f"\n--- worker traceback ---\n{worker_traceback}"
            raise TrialExecutionError(
                message, partial_values=self._salvage_values(sweep.payloads)
            )
        self.ops_metrics.counter("runtime.chunk_retries").inc()
        self.ops_trace.event(
            self._elapsed(),
            "chunk.retry",
            lo=lo,
            hi=hi,
            attempt=failures,
            reason=reason[:200],
        )
        # The failed attempt as a span, parented under the chunk whose
        # record will exist once some attempt finally succeeds (ids are
        # deterministic, so the parent link resolves retroactively).
        self.spans.emit(
            "span.attempt",
            start=max(0.0, self._elapsed() - max(0.0, duration)),
            duration=max(0.0, duration),
            key=(sweep.ordinal, index, failures),
            parent=self.spans.span_id("span.chunk", sweep.ordinal, index),
            lo=lo,
            hi=hi,
            attempt=failures,
            host=None,
            status="error",
        )
        if self.progress is not None:
            self.progress.note_retry()
        return self.policy.backoff_seconds(failures, index)

    def _settle_ahead(
        self,
        sweep: _Sweep,
        failed: int,
        inflight: dict[Future[Any], tuple[int, _Bounds, float]],
    ) -> None:
        """Let the in-flight chunks ahead of a fatal failure finish first.

        Their results extend the salvaged trial-order prefix as far as
        consuming chunks in index order would, so what a failed sweep
        salvages does not depend on which worker finished first.  Waits
        are bounded by the sweep deadline and the chunk watchdog; the
        first chunk that fails or runs out of time ends the prefix.
        """
        ahead = sorted(inflight.items(), key=lambda item: item[1][0])
        for future, (index, bounds, started) in ahead:
            if index > failed:
                break
            limits = [sweep.deadline] if sweep.deadline is not None else []
            if self.chunk_timeout is not None:
                limits.append(started + self.chunk_timeout)
            wait_s = max(0.0, min(limits) - time.monotonic()) if limits else None
            try:
                result = future.result(timeout=wait_s)
            except (FutureTimeoutError, CancelledError, RuntimeError, OSError):
                return  # includes BrokenProcessPool, a RuntimeError
            if not isinstance(result, ChunkPayload):
                return
            del inflight[future]
            self._note_chunk_done(sweep, index, bounds, result)

    def _absorb_batch_stats(self, payload: ChunkPayload) -> None:
        """Fold a chunk's batch-engine split into the ops telemetry.

        Operational only -- never part of result artifacts, so batch=on
        and batch=off runs stay byte-identical.  Demotions also count
        per reason as ``sim.batch_demotions.<reason>``, summing to
        ``sim.batch_demotions``, and fallbacks per exception type as
        ``sim.batch_fallbacks.<type>`` (snake case: ``RuntimeError`` ->
        ``runtime_error``), summing to ``sim.batch_fallbacks``.
        """
        batched, demoted = payload.batch
        if batched:
            self.ops_metrics.counter("sim.batch_trials").inc(batched)
        if demoted:
            self.ops_metrics.counter("sim.batch_demotions").inc(demoted)
        for reason, count in payload.batch_demotions.items():
            self.ops_metrics.counter(f"sim.batch_demotions.{reason}").inc(count)
        error = payload.batch_fallback_error
        if error is not None:
            self.ops_metrics.counter("sim.batch_fallbacks").inc()
            self.ops_metrics.counter(
                f"sim.batch_fallbacks.{_metric_segment(error)}"
            ).inc()

    # ------------------------------------------------------------------
    # Pool path (any ChunkExecutor backend)
    # ------------------------------------------------------------------
    def _wants_local_pool(self, chunks: list[tuple[int, _Bounds]]) -> bool:
        return self.workers > 1 and len(chunks) > 1

    def _fall_back(
        self,
        sweep: _Sweep,
        executor: ChunkExecutor,
        pending: list[tuple[int, _Bounds]],
        reason: str,
    ) -> None:
        """Record that the sweep leaves ``executor`` for the next rung.

        The runner's one degradation point: a backend that cannot start,
        cannot be rebuilt, or reports itself unavailable ends its rung of
        the placement ladder, and :meth:`_execute` hands the chunks it did
        not finish to the local path.  Each step down warns, counts one
        ``runtime.backend_fallbacks`` and records a ``backend.fallback``
        event with its reason.
        """
        left = [(i, b) for i, b in pending if b not in sweep.payloads]
        local = executor is self.backend and self._wants_local_pool(left)
        self.ops_metrics.counter("runtime.backend_fallbacks").inc()
        self.ops_trace.event(
            self._elapsed(),
            "backend.fallback",
            backend=executor.name,
            to="local" if local else "in-process",
            pending=len(left),
            reason=reason[:200],
        )
        warnings.warn(
            f"{executor.name} backend: {reason}; running the remaining "
            f"{len(left)} chunk(s) {'on a local pool' if local else 'in-process'}",
            RuntimeWarning,
            stacklevel=2,
        )

    def _rebuild_backend(
        self,
        executor: ChunkExecutor,
        inflight: dict[Future[Any], tuple[int, _Bounds, float]],
        queue: deque[tuple[int, _Bounds]],
    ) -> bool:
        """Requeue collateral chunks and rebuild the backend's compute.

        Chunks still in flight when the backend dies are *collateral*:
        they are rescheduled without an attempt charge (the chunk that
        caused the teardown was charged by the caller and sits in its
        backoff window already).  Returns whether the backend came back.
        """
        for index, bounds, _started in inflight.values():
            queue.append((index, bounds))
        inflight.clear()
        self.ops_metrics.counter("runtime.pool_rebuilds").inc()
        rebuilds = int(self.ops_metrics.counter("runtime.pool_rebuilds").value)
        self.ops_trace.event(
            self._elapsed(),
            "pool.rebuild",
            pending=len(queue),
            backend=executor.name,
        )
        with self.spans.span(
            "span.pool_rebuild",
            key=("rebuild", rebuilds),
            backend=executor.name,
            pending=len(queue),
        ):
            return executor.rebuild()

    def _drain_backend_events(self, executor: ChunkExecutor) -> None:
        """Fold backend facts (steals, worker deaths) into ops telemetry.

        Accounting contract: a steal charges exactly one retry (the
        straggler's lease expired -- that *is* the retry); a worker
        death charges one retry per lease it forfeited; a duplicate
        completion (steal loser finishing late) charges nothing and is
        recorded only as a trace event, which is what "losers uncharged,
        at-most-once aggregation" means in numbers.  Backend-internal
        requeues never consume the runner's ``RetryPolicy`` attempt
        budget -- that budget is for chunks that *failed*, not chunks a
        dying host happened to hold.
        """
        for event in executor.drain_events():
            data = dict(event.data)
            if event.kind == "steal":
                self.ops_metrics.counter("runtime.steals").inc()
                self.ops_metrics.counter("runtime.chunk_retries").inc()
                self.ops_trace.event(self._elapsed(), "chunk.steal", **data)
                # Instantaneous span: the steal decision itself (the
                # stolen chunk's execution shows up as attempt spans).
                self.spans.emit(
                    "span.steal",
                    start=self._elapsed(),
                    duration=0.0,
                    **{k: v for k, v in data.items() if k != "dur_s"},
                )
                if self.progress is not None:
                    self.progress.note_steal()
            elif event.kind == "worker_death":
                requeued = int(data.get("requeued", 0))
                self.ops_metrics.counter("runtime.worker_deaths").inc()
                if requeued:
                    self.ops_metrics.counter("runtime.chunk_retries").inc(requeued)
                self.ops_trace.event(self._elapsed(), "worker.death", **data)
                if self.progress is not None:
                    self.progress.note_worker_death()
            elif event.kind == "duplicate":
                self.ops_trace.event(self._elapsed(), "chunk.duplicate", **data)
            elif event.kind == "worker_join":
                self.ops_trace.event(self._elapsed(), "worker.join", **data)
            else:
                self.ops_trace.event(
                    self._elapsed(), f"backend.{event.kind}", **data
                )

    def _next_wakeup(
        self,
        inflight: dict[Future[Any], tuple[int, _Bounds, float]],
        retry_at: dict[int, tuple[float, _Bounds]],
        deadline: float | None,
    ) -> float:
        """Longest safe wait() timeout before some timer needs service."""
        now = time.monotonic()
        horizons = [0.5]
        if self.chunk_timeout is not None and inflight:
            oldest = min(started for _i, _b, started in inflight.values())
            horizons.append(oldest + self.chunk_timeout - now)
        if retry_at:
            horizons.append(min(t for t, _b in retry_at.values()) - now)
        if deadline is not None:
            horizons.append(deadline - now)
        return max(0.0, min(horizons))

    def _execute_pooled(
        self,
        sweep: _Sweep,
        pending: list[tuple[int, _Bounds]],
        executor: ChunkExecutor,
    ) -> None:
        """Run pending chunks on ``executor``, retrying and rebuilding.

        Completed chunks land in ``sweep.payloads`` (and the journal) the
        moment they arrive, in *completion* order -- determinism is
        restored by the caller's chunk-ordered fold.  When the executor
        degrades (:meth:`_fall_back`) this returns early and the caller
        runs the chunks still missing on the next rung.  The runner shuts
        down an executor it built, never the caller's ``backend``.
        """
        owns_backend = executor is not self.backend
        try:
            executor.start()
        except BackendUnavailable as exc:  # sandboxes without semaphores
            self._fall_back(sweep, executor, pending, str(exc))
            return
        queue: deque[tuple[int, _Bounds]] = deque(pending)
        retry_at: dict[int, tuple[float, _Bounds]] = {}
        inflight: dict[Future[Any], tuple[int, _Bounds, float]] = {}
        try:
            while queue or inflight or retry_at:
                now = time.monotonic()
                if sweep.deadline is not None and now >= sweep.deadline:
                    raise self._sweep_timeout_error(sweep)
                # Chunk-boundary stop point: everything journaled so far
                # is durable; in-flight chunks are abandoned (the finally
                # clause resets the backend) and simply re-run on resume.
                self._check_stop(sweep)
                for index in [i for i, (t, _b) in retry_at.items() if t <= now]:
                    _due, bounds = retry_at.pop(index)
                    queue.append((index, bounds))
                # In-flight chunks are capped at the backend's capacity.
                try:
                    while queue and len(inflight) < max(1, executor.capacity()):
                        index, bounds = queue[0]
                        future = executor.submit(sweep.job(index, bounds))
                        queue.popleft()
                        inflight[future] = (index, bounds, time.monotonic())
                except BackendUnavailable as exc:
                    self._fall_back(sweep, executor, pending, str(exc))
                    return
                if not inflight:
                    # Everything is waiting out a backoff window.
                    pause = self._next_wakeup(inflight, retry_at, sweep.deadline)
                    if pause > 0:
                        time.sleep(pause)
                    continue
                done, _still_running = wait(
                    set(inflight),
                    timeout=self._next_wakeup(inflight, retry_at, sweep.deadline),
                    return_when=FIRST_COMPLETED,
                )
                self._drain_backend_events(executor)
                broken = False
                unavailable: str | None = None
                # Index order: of chunks that finish together, the earlier
                # ones land before a later one can end the sweep.
                for future in sorted(done, key=lambda f: inflight[f][0]):
                    index, bounds, started = inflight.pop(future)
                    worker_traceback: str | None = None
                    try:
                        result = future.result()
                    except BackendUnavailable as exc:
                        # A backend fact, not a chunk failure: no attempt
                        # is charged; the next rung runs the chunk.
                        unavailable = unavailable or str(exc)
                        continue
                    except (BrokenProcessPool, RuntimeError, OSError) as exc:
                        # One crash breaks the whole pool, so every
                        # in-flight future resolves with this error at
                        # once.  Charge only the first -- the rest are
                        # collateral chunks that never got to finish and
                        # are rescheduled without an attempt charge.
                        if broken:
                            queue.append((index, bounds))
                            continue
                        broken = True
                        reason = f"worker process crashed ({type(exc).__name__}: {exc})"
                    else:
                        if isinstance(result, ChunkPayload):
                            self._note_chunk_done(sweep, index, bounds, result)
                            continue
                        reason = f"trial {result.index} raised {result.message}"
                        worker_traceback = result.worker_traceback
                    delay = self._note_chunk_failure(
                        sweep,
                        index,
                        bounds,
                        reason,
                        worker_traceback=worker_traceback,
                        duration=max(0.0, time.monotonic() - started),
                        inflight=inflight,
                    )
                    retry_at[index] = (time.monotonic() + delay, bounds)
                if unavailable is not None:
                    self._fall_back(sweep, executor, pending, unavailable)
                    return
                if broken:
                    if not self._rebuild_backend(executor, inflight, queue):
                        self._fall_back(sweep, executor, pending, "cannot be rebuilt")
                        return
                    continue
                # Watchdog: runs every iteration, not just when wait()
                # comes back empty -- a hung chunk must be detected even
                # while other chunks keep completing around it.
                if self.chunk_timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (future, entry)
                        for future, entry in inflight.items()
                        if now - entry[2] >= self.chunk_timeout
                    ]
                    if expired:
                        for future, (index, bounds, _started) in expired:
                            del inflight[future]
                            delay = self._note_chunk_failure(
                                sweep,
                                index,
                                bounds,
                                f"chunk exceeded the {self.chunk_timeout:g}s "
                                "chunk timeout",
                                duration=self.chunk_timeout,
                                inflight=inflight,
                            )
                            retry_at[index] = (time.monotonic() + delay, bounds)
                        if not self._rebuild_backend(executor, inflight, queue):
                            self._fall_back(
                                sweep, executor, pending, "cannot be rebuilt"
                            )
                            return
        finally:
            self._drain_backend_events(executor)
            if inflight or queue or retry_at:
                # Abnormal exit: workers may be stuck mid-trial.
                executor.reset()
            if owns_backend:
                executor.shutdown(wait=not (inflight or queue or retry_at))

    # ------------------------------------------------------------------
    # Serial path (workers=1, single chunk, or pool unavailable)
    # ------------------------------------------------------------------
    def _execute_serial(self, sweep: _Sweep, pending: list[tuple[int, _Bounds]]) -> None:
        for index, bounds in pending:
            while True:
                if sweep.deadline is not None and time.monotonic() >= sweep.deadline:
                    raise self._sweep_timeout_error(sweep)
                self._check_stop(sweep)
                result = sweep.job(index, bounds).run()
                if isinstance(result, ChunkPayload):
                    self._note_chunk_done(sweep, index, bounds, result)
                    break
                delay = self._note_chunk_failure(
                    sweep,
                    index,
                    bounds,
                    f"trial {result.index} raised {result.message}",
                    worker_traceback=result.worker_traceback,
                )
                if delay > 0:
                    time.sleep(delay)
