"""The chunk-executor protocol: where trial chunks actually run.

The trial runners (:class:`~repro.runtime.TrialRunner`,
:class:`~repro.runtime.ResilientRunner`) decide *what* runs -- chunk
boundaries, retry budgets, checkpointing, the deterministic fold -- while
a :class:`ChunkExecutor` backend decides *where*: a local process pool
(:class:`~repro.runtime.executors.LocalProcessBackend`) or a fleet of
remote hosts pulling work over TCP
(:class:`~repro.runtime.executors.TcpWorkQueueBackend`).  The contract
every backend must honor is the determinism invariant the runners were
built on: a chunk is a pure function of ``(fn, seed, lo, hi, args)``, so
*which* backend (and which host) executed it can never change a result --
only wall-clock facts and operational telemetry.

This module holds the pieces shared by every backend:

* :func:`run_chunk` -- the chunk execution primitive (runs in a pool
  worker, a remote worker process, or in-process).
* :class:`ChunkPayload` / :class:`ChunkFailure` -- its result types,
  shipped back as data so they survive any transport (pipe, socket,
  checkpoint journal).
* :class:`ChunkJob` -- one dispatchable unit of work.
* :class:`ChunkExecutor` -- the backend protocol.
* :class:`BackendEvent` -- operational facts (steals, worker deaths)
  backends surface for the runner's ops telemetry.
* :func:`parse_backend_spec` / :func:`make_backend` -- the CLI-facing
  backend factory (``local`` | ``tcp://HOST:PORT``).
"""

from __future__ import annotations

import dataclasses
import os
import socket
import time
import traceback
from collections.abc import Callable, Mapping
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Protocol, Union

from repro.obs import MetricsRegistry, TraceRecorder

if TYPE_CHECKING:
    from .tcp import TcpWorkQueueBackend

__all__ = [
    "BackendEvent",
    "BackendUnavailable",
    "ChunkExecutor",
    "ChunkFailure",
    "ChunkFuture",
    "ChunkJob",
    "ChunkPayload",
    "ChunkResult",
    "make_backend",
    "parse_backend_spec",
    "run_chunk",
    "worker_label",
]


class BackendUnavailable(RuntimeError):
    """An executor backend cannot be brought up (or has gone away).

    Raised by ``start()`` or ``submit()``, or set on a chunk future (a
    TCP coordinator with no live worker).  The runner charges no attempt
    for it: it leaves the backend and finishes the sweep on its local
    path, counting the step down as ``runtime.backend_fallbacks``.
    """


@dataclasses.dataclass(frozen=True)
class ChunkFailure:
    """Worker-side trial failure, shipped back as data (always picklable)."""

    index: int
    message: str
    worker_traceback: str


@dataclasses.dataclass(frozen=True)
class ChunkPayload:
    """One chunk's results plus its telemetry, shipped back from a worker.

    ``batch`` is ``(batched, demoted)`` trial counts from the batch
    engine (``(0, 0)`` for a scalar chunk) and ``batch_demotions`` splits
    ``demoted`` by reason; ``batch_fallback_error`` names the exception
    type when a ``batch="auto"`` attempt raised and the chunk re-ran
    scalar (``None`` otherwise).
    ``host`` is the :func:`worker_label` of wherever the chunk executed
    -- purely operational attribution for the runner's attempt spans,
    never part of result artifacts.
    """

    values: list[Any]
    seconds: float
    metrics: MetricsRegistry | None
    records: list[dict[str, Any]]
    batch: tuple[int, int] = (0, 0)
    host: str | None = None
    batch_fallback_error: str | None = None
    batch_demotions: dict[str, int] = dataclasses.field(default_factory=dict)


_worker_label_cache: tuple[int, str] | None = None


def worker_label() -> str:
    """``hostname/pid`` of this process -- the chunk attribution label.

    Cached per pid (a forked pool worker inherits the parent's module
    globals, so the cache is keyed on ``os.getpid()``).
    """
    global _worker_label_cache
    pid = os.getpid()
    if _worker_label_cache is None or _worker_label_cache[0] != pid:
        _worker_label_cache = (pid, f"{socket.gethostname()}/{pid}")
    return _worker_label_cache[1]


#: What a dispatched chunk resolves to: results or an in-trial failure.
ChunkResult = Union[ChunkPayload, ChunkFailure]
#: The future type every backend's ``submit`` returns.
ChunkFuture = Future[ChunkResult]


def run_chunk(
    fn: Callable[..., Any],
    seed: int,
    lo: int,
    hi: int,
    args: tuple[Any, ...],
    collect_metrics: bool = False,
    collect_trace: bool = False,
    batch: str = "off",
) -> ChunkResult:
    """Run one contiguous chunk of trials; runs wherever the backend puts it.

    Runs trials ``lo .. hi - 1`` of a sweep seeded ``seed``.  Each trial
    builds its own stream from ``(seed, index)`` (see
    :class:`~repro.runtime.TrialContext`), so the result is a pure
    function of the arguments -- identical on a pool worker, a remote TCP
    worker, or in-process -- and a chunk's job is the same few bytes at
    any length.

    ``batch`` (``auto``/``on``/``off``) selects the vectorized batch
    engine for trial functions that have one registered
    (:mod:`repro.sim.batch`).  The batch attempt is all-or-nothing.
    Under ``"auto"`` an error discards its partial state and the chunk
    re-runs through this scalar loop (with ``batch_fallback_error`` set
    to the exception type name, so the runner counts it by type),
    keeping the scalar failure semantics: a :class:`ChunkFailure` naming
    the exact trial.  Under ``"on"`` the
    batch error itself is the chunk's :class:`ChunkFailure`, so a batch
    bug surfaces instead of costing only time.
    """
    began = time.perf_counter()
    fallback_error: str | None = None
    if batch != "off":
        try:
            batched = _run_chunk_batched(
                fn, seed, lo, hi, args, collect_metrics, collect_trace,
                batch, began,
            )
        except Exception as exc:
            if batch == "on":
                return ChunkFailure(
                    index=lo,
                    message=f"batch engine: {type(exc).__name__}: {exc}",
                    worker_traceback=traceback.format_exc(),
                )
            batched, fallback_error = None, type(exc).__name__
        if batched is not None:
            return batched
    metrics = MetricsRegistry() if collect_metrics else None
    records: list[dict[str, Any]] = []
    out: list[Any] = []
    for index in range(lo, hi):
        trace = TraceRecorder(trial=index) if collect_trace else None
        ctx = _trial_context(index, seed, metrics, trace)
        try:
            out.append(fn(ctx, *args))
        except Exception as exc:  # surfaced as TrialExecutionError upstream
            return ChunkFailure(
                index=ctx.index,
                message=f"{type(exc).__name__}: {exc}",
                worker_traceback=traceback.format_exc(),
            )
        if trace is not None:
            records.extend(trace.records)
    return ChunkPayload(
        values=out,
        seconds=time.perf_counter() - began,
        metrics=metrics,
        records=records,
        host=worker_label(),
        batch_fallback_error=fallback_error,
    )


def _run_chunk_batched(
    fn: Callable[..., Any],
    seed: int,
    lo: int,
    hi: int,
    args: tuple[Any, ...],
    collect_metrics: bool,
    collect_trace: bool,
    mode: str,
    began: float,
) -> ChunkPayload | None:
    """One all-or-nothing batch attempt at a chunk.

    ``None`` means the chunk does not batch (mode, registry or size);
    any error raises.  The attempt works on its own registry and
    recorders, so a failed attempt leaves nothing behind -- a scalar
    re-run recomputes the chunk from the same seed streams, which
    re-derives every draw.
    """
    from repro.sim.batch import batch_impl_for, resolve_batch_mode

    if not resolve_batch_mode(mode, fn, hi - lo):
        return None
    impl = batch_impl_for(fn)
    assert impl is not None  # resolve_batch_mode checked the registry
    metrics = MetricsRegistry() if collect_metrics else None
    traces = [
        TraceRecorder(trial=index) if collect_trace else None
        for index in range(lo, hi)
    ]
    contexts = [
        _trial_context(index, seed, metrics, trace)
        for index, trace in zip(range(lo, hi), traces)
    ]
    values, stats = impl(fn, contexts, args)
    if len(values) != hi - lo:
        raise RuntimeError(
            f"batch implementation returned {len(values)} values for "
            f"{hi - lo} trials"
        )
    records: list[dict[str, Any]] = []
    for trace in traces:
        if trace is not None:
            records.extend(trace.records)
    return ChunkPayload(
        values=values,
        seconds=time.perf_counter() - began,
        metrics=metrics,
        records=records,
        batch=(stats.batched, stats.demoted),
        host=worker_label(),
        batch_demotions=stats.demotions,
    )


def _trial_context(
    index: int,
    seed: int,
    metrics: MetricsRegistry | None,
    trace: TraceRecorder | None,
) -> Any:
    # Imported late: runner.py imports this module, and TrialContext
    # lives next to the runner.
    from ..runner import TrialContext

    return TrialContext(index=index, seed=seed, metrics=metrics, trace=trace)


@dataclasses.dataclass(frozen=True)
class ChunkJob:
    """One dispatchable unit: a contiguous range of trials of a sweep.

    ``index`` is the chunk ordinal within the sweep (stable across
    retries); ``[lo, hi)`` the trial range; ``seed`` the sweep seed every
    trial's stream is keyed under (the job carries no streams, so its
    pickled size does not grow with the chunk); ``collect`` the
    ``(metrics, trace)`` telemetry flags.  ``trace_id`` is the sweep's deterministic span
    trace id (see :mod:`repro.obs.spans`) -- observability context only,
    propagated in the TCP lease frames so a wire capture can be joined
    with the coordinator's ops trace; it never influences execution.
    Everything here must be picklable: the local backend ships jobs over
    a pipe, the TCP backend over a socket.
    """

    index: int
    lo: int
    hi: int
    fn: Callable[..., Any]
    seed: int
    args: tuple[Any, ...]
    collect: tuple[bool, bool]
    batch: str = "off"
    trace_id: str | None = None

    def run(self) -> ChunkResult:
        """Execute the job in the calling process (fallback/serial path)."""
        return run_chunk(
            self.fn, self.seed, self.lo, self.hi, self.args, *self.collect,
            batch=self.batch,
        )


@dataclasses.dataclass(frozen=True)
class BackendEvent:
    """One operational fact a backend surfaces (steal, worker death, ...).

    ``kind`` is one of ``"steal"``, ``"worker_death"``, ``"duplicate"``,
    ``"worker_join"``; ``data`` holds JSON-compatible
    scalars only, so the runner can fold events straight into its
    operational trace.  Events never carry results -- results travel
    exclusively through chunk futures, which is what keeps the
    at-most-once aggregation contract auditable.
    """

    kind: str
    data: Mapping[str, Any]


class ChunkExecutor(Protocol):
    """Where chunks run.  Implementations: local pool, TCP work queue.

    Lifecycle: ``start()`` brings the backend up (idempotent; raises
    :class:`BackendUnavailable` when the environment cannot support it),
    ``submit()`` dispatches a job and returns its future, ``rebuild()``
    replaces wedged compute after a charged failure, ``reset()``
    abandons all outstanding work (abnormal sweep exit), ``shutdown()``
    releases everything.  ``drain_events()`` hands the runner the
    operational facts (steals, worker deaths) accumulated since the
    last drain; ``capacity()`` is how many chunks the runner should
    keep in flight.
    """

    @property
    def name(self) -> str:
        """Short backend identifier (``"local"``, ``"tcp"``) for telemetry."""
        ...

    def start(self) -> None: ...

    def submit(self, job: ChunkJob) -> ChunkFuture: ...

    def capacity(self) -> int: ...

    def drain_events(self) -> list[BackendEvent]: ...

    def rebuild(self) -> bool: ...

    def reset(self) -> None: ...

    def shutdown(self, wait: bool = True) -> None: ...


# ----------------------------------------------------------------------
# Backend factory (the CLI's --backend flag)
# ----------------------------------------------------------------------
def parse_backend_spec(spec: str) -> tuple[str, tuple[str, int] | None]:
    """Parse ``local`` or ``tcp://HOST:PORT`` into ``(kind, address)``.

    Raises ``ValueError`` with a one-line diagnostic on anything else,
    so the CLI surfaces a clear error instead of silently diverging.
    """
    text = spec.strip()
    if text == "local":
        return ("local", None)
    for prefix in ("tcp://", "tcp:"):
        if text.startswith(prefix):
            host, port = _parse_hostport(text[len(prefix):], spec)
            return ("tcp", (host, port))
    raise ValueError(
        f"unknown executor backend {spec!r}; expected 'local' or "
        "'tcp://HOST:PORT'"
    )


def _parse_hostport(text: str, spec: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"backend spec {spec!r} needs HOST:PORT (e.g. tcp://127.0.0.1:9123)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"backend spec {spec!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"backend spec {spec!r} port out of range: {port}")
    return host, port


def make_backend(
    spec: str,
    *,
    lease_timeout: float | None = None,
) -> "TcpWorkQueueBackend | None":
    """Build the executor backend a ``--backend`` spec names.

    ``"local"`` returns ``None`` -- the runners' built-in local path,
    which preserves the ``workers=1`` never-touches-multiprocessing
    contract.  ``"tcp://HOST:PORT"`` returns a coordinator that binds
    that address, with ``lease_timeout`` when one is given.  It runs no
    chunk itself: when no remote worker is connected, the runner
    degrades to its own local path, sized by the runner's ``workers``.
    """
    kind, address = parse_backend_spec(spec)
    if kind == "local":
        return None
    from .tcp import TcpWorkQueueBackend

    assert address is not None
    host, port = address
    if lease_timeout is None:
        return TcpWorkQueueBackend(host, port)
    return TcpWorkQueueBackend(host, port, lease_timeout=lease_timeout)
