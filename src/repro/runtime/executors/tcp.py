"""Pull-based TCP work queue: a chunk coordinator for multi-host campaigns.

The coordinator (:class:`TcpWorkQueueBackend`) listens on a TCP address;
worker processes started with ``mlec-sim workers --connect HOST:PORT``
(see :mod:`~repro.runtime.executors.worker`) connect, announce
themselves, and *pull* chunk leases one at a time.  Pull scheduling is
what makes host loss survivable: the coordinator owns the work queue,
so a dead worker forfeits only its current lease, never a partition of
the sweep.

Robustness machinery, in the order it fires:

* **Death by disconnect** -- a SIGKILLed worker's socket closes; the
  reader thread reaps it immediately and requeues its lease.
* **Death by silence** -- workers heartbeat every few seconds (even
  mid-chunk, from a sidecar thread); a worker silent for
  ``heartbeat_timeout`` is declared dead and its lease requeued.  This
  is the network-partition path: the TCP connection may look alive
  long after the far host stopped answering.
* **Straggler stealing** -- a lease older than ``lease_timeout`` is
  *speculatively* re-queued for another worker (the original keeps
  running).  First result wins; the loser's duplicate completion is
  discarded at the task table, so aggregation stays at-most-once and
  the loser is never charged a retry.
* **Empty fleet** -- if no worker has connected within
  ``connect_grace`` seconds (or all of them died), queued chunk futures
  fail with :class:`BackendUnavailable`.  The coordinator runs nothing
  itself: the runner requeues those chunks uncharged and finishes the
  sweep on its own local path, so a campaign never deadlocks on an
  empty fleet and every such fallback is counted in one place.

Wire format: length-prefixed (4-byte big-endian) JSON frames.  Chunk
jobs and results are pickled and base64-wrapped inside frames -- the
same encoding the checkpoint journal uses.

.. warning::
   Leases carry **pickled callables**: a worker executes whatever the
   coordinator sends, and the coordinator unpickles whatever a worker
   returns.  Run coordinator and workers only on hosts and networks you
   trust, exactly like the checkpoint-journal trust model.  The default
   bind address is loopback.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Any

from .base import (
    BackendEvent,
    BackendUnavailable,
    ChunkFailure,
    ChunkFuture,
    ChunkJob,
    ChunkPayload,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "TcpWorkQueueBackend",
    "decode_blob",
    "encode_blob",
    "recv_frame",
    "send_frame",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's JSON body; a corrupt length prefix must not
#: make the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 512 * 1024 * 1024


# ----------------------------------------------------------------------
# Wire helpers (shared by coordinator and worker client)
# ----------------------------------------------------------------------
def encode_blob(obj: Any) -> str:
    """Pickle + base64 an object for embedding in a JSON frame."""
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def decode_blob(text: str) -> Any:
    """Inverse of :func:`encode_blob`.  Unpickles: trusted peers only."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_frame(
    sock: socket.socket,
    obj: dict[str, Any],
    lock: threading.Lock | None = None,
) -> None:
    """Write one length-prefixed JSON frame (atomically, if a lock is given)."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    data = _HEADER.pack(len(body)) + body
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on EOF/timeout/reset (peer is gone)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    obj = json.loads(body.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        try:
            piece = sock.recv(n - len(buf))
        except OSError:
            return None
        if not piece:
            return None
        buf += piece
    return bytes(buf)


# ----------------------------------------------------------------------
# Coordinator bookkeeping
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Lease:
    """One worker currently (believed to be) executing a task."""

    worker: str
    started: float  # monotonic
    stolen: bool = False  # a speculative copy has been queued for it


@dataclasses.dataclass
class _Task:
    """Coordinator-side record of one submitted, unresolved chunk job.

    A task leaves the table the moment it resolves (result, failure or
    :class:`BackendUnavailable`), is abandoned, or is found cancelled
    when next taken from the queue; a result for a task no longer in the
    table is a duplicate.
    """

    job: ChunkJob
    future: ChunkFuture
    leases: dict[str, _Lease] = dataclasses.field(default_factory=dict)
    queued: int = 1  # entries currently sitting in the dispatch queue
    steals: int = 0


class _WorkerConn:
    """One connected worker: a socket, a liveness clock, and one lease slot."""

    __slots__ = ("id", "conn", "send_lock", "last_seen", "task", "dead")

    def __init__(self, worker_id: str, conn: socket.socket) -> None:
        self.id = worker_id
        self.conn = conn
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.task: int | None = None
        self.dead = False


class TcpWorkQueueBackend:
    """A :class:`ChunkExecutor` that leases chunks to remote TCP workers.

    Results are bitwise-identical to the local backend by construction:
    the coordinator resolves each chunk future exactly once (first
    result wins) and the runner folds chunks in order, so host count,
    steals, and worker deaths can only change wall-clock time and
    operational telemetry -- never an artifact byte.
    """

    name = "tcp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = 300.0,
        heartbeat_timeout: float = 15.0,
        connect_grace: float = 10.0,
        poll_interval: float = 0.05,
    ) -> None:
        for label, value in (
            ("lease_timeout", lease_timeout),
            ("heartbeat_timeout", heartbeat_timeout),
            ("poll_interval", poll_interval),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be > 0, got {value}")
        if connect_grace < 0:
            raise ValueError(f"connect_grace must be >= 0, got {connect_grace}")
        self._host = host
        self._port = port
        self._lease_timeout = lease_timeout
        self._heartbeat_timeout = heartbeat_timeout
        self._connect_grace = connect_grace
        self._poll_interval = poll_interval
        self._io_timeout = max(2.0 * heartbeat_timeout, 30.0)

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._tasks: dict[int, _Task] = {}
        self._queue: list[int] = []
        self._workers: dict[str, _WorkerConn] = {}
        self._events: list[BackendEvent] = []
        self._next_task_id = 0
        self._server: socket.socket | None = None
        self._bound: tuple[str, int] | None = None
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._started_at = 0.0
        self._ever_connected = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; resolves ``port=0`` to the real port."""
        if self._bound is None:
            raise BackendUnavailable("backend not started; no bound address")
        return self._bound

    def start(self) -> None:
        with self._lock:
            if self._closed:
                raise BackendUnavailable("backend is shut down")
            if self._server is not None:
                return
            try:
                server = socket.create_server((self._host, self._port), backlog=64)
            except OSError as exc:
                raise BackendUnavailable(
                    f"cannot listen on {self._host}:{self._port} ({exc})"
                ) from exc
            self._server = server
            self._bound = server.getsockname()[:2]
            self._started_at = time.monotonic()
            accept = threading.Thread(
                target=self._accept_loop, name="mlec-accept", daemon=True
            )
            dispatch = threading.Thread(
                target=self._dispatch_loop, name="mlec-dispatch", daemon=True
            )
            self._threads += [accept, dispatch]
        accept.start()
        dispatch.start()

    def submit(self, job: ChunkJob) -> ChunkFuture:
        future: ChunkFuture = Future()
        with self._wake:
            if self._closed:
                raise BackendUnavailable("backend is shut down")
            task_id = self._next_task_id
            self._next_task_id += 1
            self._tasks[task_id] = _Task(job=job, future=future)
            self._queue.append(task_id)
            self._wake.notify_all()
        return future

    def capacity(self) -> int:
        with self._lock:
            return self._alive_locked()

    def drain_events(self) -> list[BackendEvent]:
        with self._lock:
            events, self._events = self._events, []
            return events

    def rebuild(self) -> bool:
        """Abandon outstanding work after a charged failure; keep listening.

        The runner requeues its in-flight chunks itself and resubmits
        them as fresh tasks, so everything still pending here is stale.
        Returns whether any worker is alive: with none, the runner
        finishes the sweep on its local path.
        """
        with self._wake:
            self._abandon_tasks_locked()
            self._wake.notify_all()
            return self._alive_locked() > 0

    def reset(self) -> None:
        """Abandon all outstanding work (abnormal sweep exit)."""
        with self._wake:
            self._abandon_tasks_locked()
            self._wake.notify_all()

    def shutdown(self, wait: bool = True) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._abandon_tasks_locked()
            self._wake.notify_all()
        server = self._server
        if server is not None:
            # shutdown() before close(): close() alone does not abort the
            # accept() blocked in the accept-loop thread (the in-flight
            # syscall keeps the listening socket alive on Linux), so a
            # worker that reconnects the instant it sees our shutdown
            # frame would still complete a handshake against the corpse.
            try:
                server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                server.close()
            except OSError:
                pass
        for worker in workers:
            try:
                send_frame(worker.conn, {"t": "shutdown"}, worker.send_lock)
            except (OSError, ValueError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        if wait:
            for thread in self._threads:
                thread.join(timeout=2.0)

    def __enter__(self) -> "TcpWorkQueueBackend":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- coordinator internals ----------------------------------------
    def _alive_locked(self) -> int:
        return sum(1 for w in self._workers.values() if not w.dead)

    def _abandon_tasks_locked(self) -> None:
        for task in self._tasks.values():
            task.future.cancel()
        self._tasks.clear()
        self._queue.clear()

    def _accept_loop(self) -> None:
        server = self._server
        assert server is not None
        while True:
            try:
                conn, addr = server.accept()
            except OSError:
                return
            if self._closed:
                try:
                    conn.close()
                except OSError:
                    pass
                return
            reader = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"mlec-worker-{addr[0]}:{addr[1]}",
                daemon=True,
            )
            with self._lock:
                self._threads.append(reader)
            reader.start()

    def _serve_connection(self, conn: socket.socket, addr: tuple[str, int]) -> None:
        conn.settimeout(self._io_timeout)
        try:
            hello = recv_frame(conn)
        except ValueError:
            hello = None
        if hello is None or hello.get("t") != "hello":
            try:
                conn.close()
            except OSError:
                pass
            return
        label = str(hello.get("worker", "worker"))
        worker_id = f"{label}@{addr[0]}:{addr[1]}"
        worker = _WorkerConn(worker_id, conn)
        with self._wake:
            if self._closed:
                conn.close()
                return
            self._workers[worker_id] = worker
            self._ever_connected = True
            self._events.append(BackendEvent("worker_join", {"worker": worker_id}))
            self._wake.notify_all()
        try:
            self._reader_loop(worker)
        finally:
            with self._wake:
                if not worker.dead:
                    self._bury_locked(worker, "connection lost")
                self._wake.notify_all()

    def _reader_loop(self, worker: _WorkerConn) -> None:
        while True:
            try:
                frame = recv_frame(worker.conn)
            except ValueError:
                return
            if frame is None:
                return
            kind = frame.get("t")
            if kind == "heartbeat":
                with self._lock:
                    worker.last_seen = time.monotonic()
                continue
            if kind != "result":
                continue
            try:
                task_id = int(frame["task"])
                payload = decode_blob(str(frame["payload"]))
            except (KeyError, TypeError, ValueError, pickle.UnpicklingError):
                return
            if not isinstance(payload, (ChunkPayload, ChunkFailure)):
                return
            with self._wake:
                worker.last_seen = time.monotonic()
                if worker.task == task_id:
                    worker.task = None
                task = self._tasks.pop(task_id, None)
                if task is None:
                    self._events.append(
                        BackendEvent(
                            "duplicate", {"task": task_id, "worker": worker.id}
                        )
                    )
                else:
                    try:
                        task.future.set_result(payload)
                    except InvalidStateError:
                        pass  # cancelled by the runner; result discarded
                self._wake.notify_all()

    def _bury_locked(self, worker: _WorkerConn, reason: str) -> None:
        """Declare a worker dead and requeue any lease only it was running."""
        worker.dead = True
        self._workers.pop(worker.id, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        requeued = 0
        task_id = worker.task
        worker.task = None
        if task_id is not None:
            task = self._tasks.get(task_id)
            if task is not None:
                task.leases.pop(worker.id, None)
                if not task.leases and task.queued == 0:
                    task.queued += 1
                    self._queue.append(task_id)
                    requeued += 1
        self._events.append(
            BackendEvent(
                "worker_death",
                {"worker": worker.id, "reason": reason, "requeued": requeued},
            )
        )

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                if self._closed:
                    return
                now = time.monotonic()
                self._reap_silent_locked(now)
                self._steal_expired_locked(now)
                self._assign_locked(now)
                self._fail_stranded_locked(now)
                self._wake.wait(self._poll_interval)

    def _reap_silent_locked(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if not worker.dead and now - worker.last_seen > self._heartbeat_timeout:
                self._bury_locked(worker, "missed heartbeats")

    def _steal_expired_locked(self, now: float) -> None:
        for task_id, task in self._tasks.items():
            if task.queued > 0 or not task.leases:
                continue
            leases = list(task.leases.values())
            if any(now - lease.started <= self._lease_timeout for lease in leases):
                continue
            if all(lease.stolen for lease in leases):
                continue
            oldest = min(leases, key=lambda lease: lease.started)
            for lease in leases:
                lease.stolen = True
            task.steals += 1
            task.queued += 1
            self._queue.append(task_id)
            self._events.append(
                BackendEvent(
                    "steal",
                    {
                        "chunk": task.job.index,
                        "lo": task.job.lo,
                        "hi": task.job.hi,
                        "owner": oldest.worker,
                        "age_s": round(now - oldest.started, 3),
                    },
                )
            )

    def _assign_locked(self, now: float) -> None:
        idle = [
            w for w in self._workers.values() if not w.dead and w.task is None
        ]
        while self._queue and idle:
            task_id = self._queue.pop(0)
            task = self._tasks.get(task_id)
            if task is None:
                continue
            task.queued -= 1
            if task.future.cancelled():
                del self._tasks[task_id]
                continue
            # Never lease a task back to a worker already running it.
            worker = next((w for w in idle if w.id not in task.leases), None)
            if worker is None:
                task.queued += 1
                self._queue.append(task_id)
                break
            idle.remove(worker)
            job = task.job
            frame = {
                "t": "lease",
                "task": task_id,
                "seed": job.seed,
                "lo": job.lo,
                "hi": job.hi,
                # Span-trace context (observability only): workers echo it
                # in their result frames, so a wire capture can be joined
                # with the coordinator's ops trace.
                "trace": job.trace_id,
                "job": encode_blob(
                    (job.fn, job.args, job.collect, job.batch)
                ),
            }
            try:
                send_frame(worker.conn, frame, worker.send_lock)
            except (OSError, ValueError):
                worker.task = task_id  # so the bury path requeues this lease
                task.leases[worker.id] = _Lease(worker=worker.id, started=now)
                self._bury_locked(worker, "send failed")
                continue
            worker.task = task_id
            task.leases[worker.id] = _Lease(worker=worker.id, started=now)

    def _fail_stranded_locked(self, now: float) -> None:
        """Fail every queued future with :class:`BackendUnavailable` once
        no worker is alive and none is still awaited.

        The runner treats that as a backend fact, not a chunk failure: it
        requeues the chunks without charging an attempt and finishes the
        sweep on its local path.
        """
        if not self._queue or self._alive_locked():
            return
        if not self._ever_connected and now - self._started_at < self._connect_grace:
            return
        for task_id in self._queue:
            task = self._tasks.pop(task_id, None)
            if task is None:
                continue
            try:
                task.future.set_exception(
                    BackendUnavailable("no worker is connected")
                )
            except InvalidStateError:
                pass  # cancelled by the runner
        self._queue.clear()
