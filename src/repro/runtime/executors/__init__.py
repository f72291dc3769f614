"""Executor backends: pluggable answers to *where chunks run*.

The runners own determinism (trial streams, chunk boundaries, in-order
folds) and resilience policy (retries, checkpoints); backends own
compute placement.  See :mod:`~repro.runtime.executors.base` for the
protocol, :mod:`~repro.runtime.executors.local` for the single-host
pool, and :mod:`~repro.runtime.executors.tcp` /
:mod:`~repro.runtime.executors.worker` for the multi-host work queue.
"""

from .base import (
    BackendEvent,
    BackendUnavailable,
    ChunkExecutor,
    ChunkFailure,
    ChunkFuture,
    ChunkJob,
    ChunkPayload,
    ChunkResult,
    make_backend,
    parse_backend_spec,
    run_chunk,
    worker_label,
)
from .local import LocalProcessBackend
from .tcp import TcpWorkQueueBackend
from .worker import run_worker, run_worker_fleet

__all__ = [
    "BackendEvent",
    "BackendUnavailable",
    "ChunkExecutor",
    "ChunkFailure",
    "ChunkFuture",
    "ChunkJob",
    "ChunkPayload",
    "ChunkResult",
    "LocalProcessBackend",
    "TcpWorkQueueBackend",
    "make_backend",
    "parse_backend_spec",
    "run_chunk",
    "run_worker",
    "run_worker_fleet",
    "worker_label",
]
