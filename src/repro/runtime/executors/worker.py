"""Worker-side client for the TCP work queue (``mlec-sim workers``).

A worker connects to a coordinator, announces itself, then loops:
receive a lease, execute the chunk with the same :func:`run_chunk`
primitive every other backend uses, ship the result back.  A sidecar
thread heartbeats on the same socket even while a chunk is running, so
the coordinator can tell "busy" from "dead".

Workers are deliberately stateless: all scheduling, retry, and
checkpoint state lives on the coordinator, which is what lets any
number of workers join, die, or straggle without touching the journal
format or the result bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from multiprocessing.context import BaseContext

from .base import ChunkResult, run_chunk
from .tcp import decode_blob, encode_blob, recv_frame, send_frame

__all__ = ["run_worker", "run_worker_fleet"]


def _connect_with_retry(
    host: str, port: int, timeout: float | None, backoff_max: float = 5.0
) -> socket.socket | None:
    """Dial the coordinator, retrying until ``timeout`` elapses.

    Retrying matters operationally: it lets workers be started before
    the coordinator (or ride out a coordinator restart at boot).
    Retries back off exponentially from 0.2 s up to ``backoff_max`` so a
    long-lived ``--stay`` fleet waiting out a daemon restart does not
    spin-dial the dead address.  ``timeout=None`` retries forever.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    pause = 0.2
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(pause)
            pause = min(backoff_max, pause * 2)


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        try:
            send_frame(sock, {"t": "heartbeat"}, send_lock)
        except (OSError, ValueError):
            return


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    heartbeat_interval: float = 2.0,
    connect_timeout: float = 30.0,
    stay: bool = False,
    max_sessions: int | None = None,
) -> int:
    """Serve chunk leases from ``host:port`` until the coordinator goes away.

    Returns a process exit code: ``0`` on a clean finish (coordinator
    shut down or closed the connection), ``2`` when the coordinator was
    never reachable within ``connect_timeout``.

    With ``stay=True`` the worker never treats a coordinator departure as
    final: on clean shutdown, EOF, or connect failure it re-enters the
    retry-connect loop (exponential backoff capped at 5 s) and serves the
    next coordinator that binds the address.  That is the fleet mode for
    ``mlec-sim serve`` -- the daemon restarting (including ``kill -9``)
    must not orphan its workers.  A ``stay`` worker runs until the
    process is signalled; ``max_sessions`` bounds the number of
    coordinator sessions served (testing hook).
    """
    if heartbeat_interval <= 0:
        raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
    label = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    sessions = 0
    while True:
        sock = _connect_with_retry(
            host, port, None if stay else connect_timeout
        )
        if sock is None:
            return 2
        code = _serve_coordinator(sock, label, heartbeat_interval)
        sessions += 1
        if not stay:
            return code
        if max_sessions is not None and sessions >= max_sessions:
            return code


def _serve_coordinator(
    sock: socket.socket, label: str, heartbeat_interval: float
) -> int:
    """Serve one coordinator connection until it goes away."""
    sock.settimeout(None)
    send_lock = threading.Lock()
    stop = threading.Event()
    try:
        send_frame(sock, {"t": "hello", "worker": label}, send_lock)
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, heartbeat_interval, stop),
            name="mlec-heartbeat",
            daemon=True,
        )
        beat.start()
        while True:
            try:
                frame = recv_frame(sock)
            except ValueError:
                return 1
            if frame is None or frame.get("t") == "shutdown":
                return 0
            if frame.get("t") != "lease":
                continue
            try:
                task_id = int(frame["task"])
                seed, lo, hi = (int(frame[k]) for k in ("seed", "lo", "hi"))
                fn, args, collect, batch = decode_blob(str(frame["job"]))
            except (KeyError, TypeError, ValueError):
                return 1
            result: ChunkResult = run_chunk(
                fn, seed, lo, hi, args, *collect, batch=batch
            )
            try:
                send_frame(
                    sock,
                    {
                        "t": "result",
                        "task": task_id,
                        # Echo the lease's span-trace context so both
                        # directions of the wire carry the trace id.
                        "trace": frame.get("trace"),
                        "payload": encode_blob(result),
                    },
                    send_lock,
                )
            except (OSError, ValueError):
                return 0  # coordinator gone; its lease machinery recovers
    except OSError:
        return 0
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def _fleet_entry(
    host: str,
    port: int,
    worker_id: str,
    heartbeat_interval: float,
    connect_timeout: float,
    stay: bool,
) -> None:
    # Fork-started children inherit the fleet parent's _stop_fleet
    # handler, which only makes sense in the parent (it touches the
    # parent's Process handles).  Restore the default disposition so
    # terminate() kills the child instead of re-entering the handler.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    raise SystemExit(
        run_worker(
            host,
            port,
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            connect_timeout=connect_timeout,
            stay=stay,
        )
    )


def run_worker_fleet(
    host: str,
    port: int,
    *,
    processes: int,
    heartbeat_interval: float = 2.0,
    connect_timeout: float = 30.0,
    mp_context: BaseContext | None = None,
    stay: bool = False,
) -> int:
    """Run ``processes`` worker processes against one coordinator.

    Each process owns a private connection (one lease slot each), so
    the coordinator sees -- and survives the death of -- each process
    independently.  Returns the worst child exit code.  ``stay`` makes
    every process outlive coordinator departures (see :func:`run_worker`).

    SIGTERM/SIGINT on the fleet parent tears the children down too and
    counts as a clean stop (exit 0): a ``--stay`` fleet retries its
    coordinator forever, so operator signals are the *only* way it ever
    stops, and ``kill <fleet-pid>`` must not strand orphans mid-retry.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if processes == 1:
        return run_worker(
            host,
            port,
            heartbeat_interval=heartbeat_interval,
            connect_timeout=connect_timeout,
            stay=stay,
        )
    ctx: BaseContext = mp_context or multiprocessing.get_context()
    procs = []
    stopping = False

    def _stop_fleet(_signum: int, _frame: object) -> None:
        nonlocal stopping
        stopping = True
        for proc in procs:
            if proc.is_alive():
                proc.terminate()

    previous = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _stop_fleet)
    except ValueError:
        previous = {}  # not the main thread: the caller owns signals
    try:
        base = f"{socket.gethostname()}-{os.getpid()}"
        for slot in range(processes):
            proc = ctx.Process(
                target=_fleet_entry,
                args=(
                    host,
                    port,
                    f"{base}.{slot}",
                    heartbeat_interval,
                    connect_timeout,
                    stay,
                ),
                daemon=False,
            )
            proc.start()
            procs.append(proc)
        worst = 0
        for proc in procs:
            proc.join()
            code = proc.exitcode
            if code is None:
                code = 1
            if stopping and code == -signal.SIGTERM:
                continue  # we asked for that death; not a failure
            worst = max(worst, abs(code))
        return worst
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
