"""Wall-clock accounting for whole runs.

:class:`Stopwatch` is the one way elapsed wall-clock and trials/sec are
computed anywhere user-facing: ``mlec-sim simulate``, ``mlec-sim chaos``,
and the benchmark harness all format their throughput through
:meth:`Stopwatch.summary`, so the numbers cannot drift between surfaces.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Measures one run's wall clock; single source of throughput strings."""

    __slots__ = ("_start", "_stop")

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._stop: float | None = None

    def stop(self) -> float:
        """Freeze the clock (idempotent); returns elapsed seconds."""
        if self._stop is None:
            self._stop = time.perf_counter()
        return self._stop - self._start

    @property
    def seconds(self) -> float:
        end = self._stop if self._stop is not None else time.perf_counter()
        return end - self._start

    def throughput(self, items: int) -> float:
        """Items per second (0.0 for a zero-length interval)."""
        elapsed = self.seconds
        return items / elapsed if elapsed > 0 else 0.0

    def summary(self, items: int | None = None, unit: str = "trials") -> str:
        """``"1.23 s"`` or ``"1.23 s (26.0 trials/s)"``."""
        elapsed = self.seconds
        if items is None:
            return f"{elapsed:.2f} s"
        return f"{elapsed:.2f} s ({self.throughput(items):.1f} {unit}/s)"
