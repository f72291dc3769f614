"""Local process-pool backend: the single-host executor.

Wraps :class:`concurrent.futures.ProcessPoolExecutor` behind the
:class:`~repro.runtime.executors.ChunkExecutor` protocol.  This is the
only module in the codebase allowed to construct a process pool
directly (simlint SL009 ``executor-bypass`` enforces that); every other
layer reaches compute through the protocol.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing.context import BaseContext

from .base import BackendEvent, BackendUnavailable, ChunkFuture, ChunkJob, run_chunk

__all__ = ["LocalProcessBackend"]


class LocalProcessBackend:
    """A :class:`ChunkExecutor` over a local ``ProcessPoolExecutor``.

    ``start`` raises :class:`BackendUnavailable` when the host cannot
    spawn worker processes (sandboxes, resource limits), which callers
    translate into the in-process fallback.  ``rebuild`` replaces a
    broken pool after a worker crash; ``reset`` tears everything down
    without waiting (abnormal sweep exit).

    Host attribution needs no plumbing here: :func:`run_chunk` stamps
    the executing process's ``hostname/pid`` label into every payload,
    so the runner's attempt spans are attributed identically whether a
    chunk ran in-process, in this pool, or on a remote TCP worker.
    """

    name = "local"

    def __init__(
        self, max_workers: int, mp_context: BaseContext | None = None
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None

    def start(self) -> None:
        if self._pool is not None:
            return
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self.mp_context
            )
        except Exception as exc:
            raise BackendUnavailable(f"process pool unavailable ({exc!r})") from exc

    def submit(self, job: ChunkJob) -> ChunkFuture:
        if self._pool is None:
            self.start()
        assert self._pool is not None
        return self._pool.submit(
            run_chunk, job.fn, job.seed, job.lo, job.hi, job.args, *job.collect,
            batch=job.batch,
        )

    def capacity(self) -> int:
        return self.max_workers

    def drain_events(self) -> list[BackendEvent]:
        return []

    def rebuild(self) -> bool:
        """Replace a broken pool; False when the host cannot spawn workers."""
        self._terminate()
        try:
            self.start()
        except BackendUnavailable:
            return False
        return True

    def reset(self) -> None:
        self._terminate()

    def shutdown(self, wait: bool = True) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _terminate(self) -> None:
        """Kill the pool without waiting: crashed/hung workers won't drain."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
