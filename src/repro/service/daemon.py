"""The ``mlec-sim serve`` daemon: submit sweeps over HTTP, survive anything.

This module wires the service pieces into one crash-safe loop:

* **Recovery first.**  On startup the daemon replays the durable
  :class:`~repro.service.store.JobStore` and re-queues every non-terminal
  job -- jobs found ``running`` are first parked as ``checkpointed``
  (their trial progress is already journaled by their own checkpoint
  file), so a ``kill -9`` mid-job costs at most the in-flight chunks.
* **Dedupe on submit.**  Job identity is the spec's content hash
  (:meth:`~repro.service.spec.SweepSpec.key`): resubmitting a finished
  sweep returns its cached result without executing a trial, and a
  duplicate of an in-flight sweep attaches to it instead of queueing a
  second copy.
* **Admission control.**  The bounded queue answers saturation with
  ``429`` + ``Retry-After``; a draining daemon answers ``503``.
* **Graceful drain.**  SIGTERM/SIGINT flip the daemon into draining
  mode: readiness goes 503, the running job is checkpointed at its next
  chunk boundary, and the process exits 0 with every byte of progress
  on disk.

The HTTP surface (see ``docs/service.md``):

========  ======================  =======================================
Method    Path                    Purpose
========  ======================  =======================================
POST      ``/jobs``               submit a sweep spec (dedupe-aware)
GET       ``/jobs``               list all jobs
GET       ``/jobs/<id>``          job state, progress, result when done
POST      ``/jobs/<id>/cancel``   cancel a queued or running job
GET       ``/healthz``            liveness (200 while the loop runs)
GET       ``/readyz``             readiness (503 once draining)
GET       ``/metrics``            OpenMetrics service gauges/counters
========  ======================  =======================================
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import signal
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from ..core.atomic import atomic_write_text
from ..obs import MetricsRegistry
from ..obs.export import to_openmetrics
from ..runtime import ChunkExecutor, make_backend
from .executor import JobExecution, JobOutcome
from .http import HttpError, HttpRequest, HttpResponse, HttpServer
from .offload import offload
from .queue import BoundedJobQueue, QueueFull
from .spec import SpecError, SweepSpec
from .store import JobRecord, JobState, JobStore

__all__ = ["ServiceConfig", "SimulationService", "serve"]

#: How long the scheduler dozes between queue polls when idle.
_IDLE_POLL_S = 0.25


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything ``mlec-sim serve`` needs to run."""

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    backend: str = "local"
    queue_capacity: int = 64
    retry_after: float = 5.0


class SimulationService:
    """One daemon instance: HTTP front end + durable scheduler back end."""

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self._store: JobStore | None = None
        self._queue = BoundedJobQueue(
            config.queue_capacity, retry_after=config.retry_after
        )
        self._server = HttpServer(self._handle, config.host, config.port)
        self._backend: ChunkExecutor | None = None
        # Sweeps serialize through this one thread; store/IO offloads use
        # the loop's default pool so a long sweep cannot starve them.
        self._job_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="mlec-job"
        )
        self._work = asyncio.Event()
        self._draining = False
        self._scheduler: asyncio.Task[None] | None = None
        self._current: JobExecution | None = None
        self._current_id: str | None = None
        self._cancel_requested: set[str] = set()
        self._metrics = MetricsRegistry()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Recover state, bind the listener, start scheduling."""
        config = self._config
        self._store = await offload(JobStore, config.state_dir)
        recovered = await offload(self._recover_jobs)
        self._metrics.counter("service.jobs_recovered").inc(recovered)
        if config.backend != "local":
            self._backend = await offload(
                lambda: self._make_started_backend(config)
            )
        host, port = await self._server.start()
        await offload(
            atomic_write_text,
            config.state_dir / "endpoint.json",
            json.dumps(
                {"host": host, "port": port, "pid": os.getpid()},
                sort_keys=True,
            )
            + "\n",
        )
        self._scheduler = asyncio.create_task(
            self._schedule_loop(), name="mlec-scheduler"
        )
        self._update_gauges()
        return host, port

    @staticmethod
    def _make_started_backend(config: ServiceConfig) -> ChunkExecutor:
        backend = make_backend(config.backend)
        assert backend is not None  # config.backend != "local"
        backend.start()
        return backend

    def _recover_jobs(self) -> int:
        """Re-queue every job a previous daemon left unfinished."""
        assert self._store is not None
        recovered = 0
        for job in sorted(self._store.active_jobs(), key=lambda j: j.created_at):
            if job.state is JobState.RUNNING:
                # The old daemon died mid-sweep.  Its progress is in the
                # job's checkpoint journal; the honest durable state is
                # "checkpointed, not executing".
                job = self._store.transition(
                    job.job_id, JobState.CHECKPOINTED,
                    error="recovered after daemon crash",
                )
            self._queue.push(job.job_id, job.priority)
            recovered += 1
        return recovered

    def begin_drain(self) -> None:
        """SIGTERM path: stop admitting, checkpoint the running job."""
        if self._draining:
            return
        self._draining = True
        self._metrics.gauge("service.draining").set(1)
        current = self._current
        if current is not None:
            current.request_stop()
        self._work.set()

    async def wait_drained(self) -> None:
        """Block until the scheduler has parked all work and exited."""
        if self._scheduler is not None:
            await self._scheduler

    async def close(self) -> None:
        self.begin_drain()
        await self.wait_drained()
        await self._server.close()
        backend = self._backend
        if backend is not None:
            await offload(lambda: backend.shutdown(wait=False))
        if self._store is not None:
            await offload(self._store.close)
        self._job_pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    async def _schedule_loop(self) -> None:
        assert self._store is not None
        store = self._store
        while True:
            self._update_gauges()
            if self._draining:
                return
            job_id = self._queue.pop()
            if job_id is None:
                self._work.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._work.wait(), _IDLE_POLL_S)
                continue
            record = await offload(store.get, job_id)
            if record is None:
                # Submission admitted but not yet persisted (tiny race
                # window in POST /jobs); put it back and let the store
                # write land.
                self._queue.push(job_id)
                self._work.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._work.wait(), _IDLE_POLL_S)
                continue
            if record.state.terminal:
                continue
            await self._execute_one(record)
            await offload(store.compact_if_needed)

    async def _execute_one(self, record: JobRecord) -> None:
        assert self._store is not None
        store = self._store
        record = await offload(
            lambda: store.transition(
                record.job_id, JobState.RUNNING, bump_attempts=True
            )
        )
        execution = JobExecution(
            record,
            self._config.state_dir,
            workers=self._config.workers,
            backend=self._backend,
        )
        self._current = execution
        self._current_id = record.job_id
        if self._draining or record.job_id in self._cancel_requested:
            execution.request_stop()
        try:
            outcome = await offload(execution.run, executor=self._job_pool)
        finally:
            self._current = None
            self._current_id = None
        await offload(lambda: self._apply_outcome(record.job_id, outcome))

    def _apply_outcome(self, job_id: str, outcome: JobOutcome) -> None:
        assert self._store is not None
        state = outcome.state
        if state is JobState.CHECKPOINTED and job_id in self._cancel_requested:
            # The stop that parked this job was a cancellation, not a
            # drain: progress stays on disk (a resubmit resumes it) but
            # the job itself is cancelled.
            state = JobState.CANCELLED
        self._cancel_requested.discard(job_id)
        self._store.transition(
            job_id,
            state,
            error=outcome.error,
            result_path=outcome.result_path,
            trials_done=outcome.trials_done,
        )
        name = {
            JobState.DONE: "service.jobs_done",
            JobState.FAILED: "service.jobs_failed",
            JobState.CANCELLED: "service.jobs_cancelled",
            JobState.CHECKPOINTED: "service.jobs_checkpointed",
        }[state]
        self._metrics.counter(name).inc()

    def _update_gauges(self) -> None:
        self._metrics.gauge("service.queue_depth").set(len(self._queue))
        self._metrics.gauge("service.jobs_inflight").set(
            1 if self._current is not None else 0
        )
        self._metrics.gauge("service.draining").set(1 if self._draining else 0)
        self._metrics.gauge("service.uptime_seconds").set(
            time.monotonic() - self._started_at
        )

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _handle(self, request: HttpRequest) -> HttpResponse:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return self._health()
        if path == "/readyz":
            return self._ready()
        if path == "/metrics":
            return self._openmetrics()
        if path == "/jobs":
            if request.method == "POST":
                return await self._submit(request)
            if request.method == "GET":
                return await self._list_jobs()
            raise HttpError(405, f"{request.method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/cancel"):
                job_id = rest[: -len("/cancel")]
                if request.method != "POST":
                    raise HttpError(405, "cancel requires POST")
                return await self._cancel(job_id)
            if request.method != "GET":
                raise HttpError(405, f"{request.method} not allowed on {path}")
            return await self._get_job(rest)
        raise HttpError(404, f"no route for {request.path!r}")

    def _health(self) -> HttpResponse:
        return HttpResponse(
            200, {"status": "ok", "draining": self._draining}
        )

    def _ready(self) -> HttpResponse:
        if self._draining:
            return HttpResponse(
                503, {"status": "draining", "ready": False}
            )
        return HttpResponse(200, {"status": "ok", "ready": True})

    def _openmetrics(self) -> HttpResponse:
        self._update_gauges()
        text = to_openmetrics(self._metrics)
        return HttpResponse(
            200,
            text.encode("utf-8"),
            content_type="application/openmetrics-text; version=1.0.0; "
            "charset=utf-8",
        )

    async def _submit(self, request: HttpRequest) -> HttpResponse:
        if self._draining:
            raise HttpError(
                503, "service is draining; resubmit to the next instance",
                {"Retry-After": f"{self._config.retry_after:g}"},
            )
        assert self._store is not None
        store = self._store
        try:
            # Validation resolves fn/args (imports simulation modules,
            # pickles the args tuple): real work, so off-loop.
            spec = await offload(SweepSpec.from_json, request.body)
            job_id = await offload(spec.job_id)
        except SpecError as exc:
            raise HttpError(400, str(exc)) from exc

        existing = await offload(store.get, job_id)
        if existing is not None:
            return await self._submit_existing(existing)

        if job_id not in self._queue and len(self._queue) >= self._queue.capacity:
            raise HttpError(
                429,
                f"job queue at capacity ({self._queue.capacity})",
                {"Retry-After": f"{self._config.retry_after:g}"},
            )
        now = time.time()
        record = JobRecord(
            job_id=job_id,
            spec=spec.to_json(),
            state=JobState.QUEUED,
            priority=spec.priority,
            created_at=now,
            updated_at=now,
        )
        try:
            self._queue.push(job_id, spec.priority)
        except QueueFull as exc:
            raise HttpError(
                429, str(exc), {"Retry-After": f"{exc.retry_after:g}"}
            ) from exc
        try:
            record = await offload(store.submit, record)
        except Exception:
            self._queue.remove(job_id)
            raise
        self._work.set()
        self._metrics.counter("service.jobs_submitted").inc()
        return HttpResponse(202, {"job": record.public_view()})

    async def _submit_existing(self, existing: JobRecord) -> HttpResponse:
        """Dedupe: same content hash as a known job."""
        assert self._store is not None
        store = self._store
        if existing.state is JobState.DONE:
            self._metrics.counter("service.cache_hits").inc()
            record = await offload(store.note_duplicate, existing.job_id)
            view = record.public_view()
            result = await self._load_result(record)
            if result is not None:
                view["result"] = result
            return HttpResponse(200, {"job": view, "cached": True})
        if existing.state.active:
            self._metrics.counter("service.dedupe_attached").inc()
            record = await offload(store.note_duplicate, existing.job_id)
            return HttpResponse(
                202, {"job": record.public_view(), "attached": True}
            )
        # failed / cancelled: a resubmit is an explicit retry, resuming
        # from whatever checkpoint the failed attempt journaled.
        if len(self._queue) >= self._queue.capacity:
            raise HttpError(
                429,
                f"job queue at capacity ({self._queue.capacity})",
                {"Retry-After": f"{self._config.retry_after:g}"},
            )
        record = await offload(
            lambda: store.transition(existing.job_id, JobState.QUEUED)
        )
        self._queue.push(record.job_id, record.priority)
        self._work.set()
        self._metrics.counter("service.jobs_resubmitted").inc()
        return HttpResponse(202, {"job": record.public_view(), "retried": True})

    async def _load_result(self, record: JobRecord) -> Any | None:
        if record.result_path is None:
            return None
        path = Path(record.result_path)

        def read() -> Any | None:
            try:
                return json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                return None

        return await offload(read)

    async def _get_job(self, job_id: str) -> HttpResponse:
        assert self._store is not None
        record = await offload(self._store.get, job_id)
        if record is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        view = record.public_view()
        current = self._current
        if self._current_id == record.job_id and current is not None:
            view["trials_done"] = await offload(current.trials_done)
        if record.state is JobState.DONE:
            result = await self._load_result(record)
            if result is not None:
                view["result"] = result
        return HttpResponse(200, {"job": view})

    async def _list_jobs(self) -> HttpResponse:
        assert self._store is not None
        records = await offload(self._store.list_jobs)
        records.sort(key=lambda r: r.created_at)
        return HttpResponse(
            200,
            {
                "jobs": [r.public_view() for r in records],
                "queue_depth": len(self._queue),
                "draining": self._draining,
            },
        )

    async def _cancel(self, job_id: str) -> HttpResponse:
        assert self._store is not None
        store = self._store
        record = await offload(store.get, job_id)
        if record is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        if record.state.terminal:
            raise HttpError(
                409, f"job {job_id} is already {record.state.value}"
            )
        if self._queue.remove(job_id):
            record = await offload(
                lambda: store.transition(job_id, JobState.CANCELLED)
            )
            self._metrics.counter("service.jobs_cancelled").inc()
            return HttpResponse(200, {"job": record.public_view()})
        # Running (or about to be): ask the execution to stop at the next
        # chunk boundary; _apply_outcome turns the checkpoint into a
        # cancellation.
        self._cancel_requested.add(job_id)
        current = self._current
        if self._current_id == job_id and current is not None:
            current.request_stop()
        return HttpResponse(
            202, {"job": record.public_view(), "cancelling": True}
        )


async def _serve_async(
    config: ServiceConfig, announce: Callable[[str], None]
) -> int:
    service = SimulationService(config)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, service.begin_drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loops: rely on KeyboardInterrupt
    host, port = await service.start()
    announce(
        f"mlec-sim serve: listening on http://{host}:{port} "
        f"(state: {config.state_dir})"
    )
    try:
        await service.wait_drained()
    finally:
        await service.close()
    announce("mlec-sim serve: drained; all progress checkpointed")
    return 0


def serve(
    config: ServiceConfig,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Blocking entry point for ``mlec-sim serve``.

    ``announce`` receives human-facing status lines; the CLI passes
    ``print``, library callers (and tests) can pass a collector or
    nothing.  Keeping presentation injected keeps this module clean
    under simlint SL007 (``no-print-in-library``) for real: the daemon
    itself never owns an output stream.
    """
    sink = announce if announce is not None else (lambda _line: None)
    try:
        return asyncio.run(_serve_async(config, sink))
    except KeyboardInterrupt:
        return 0
