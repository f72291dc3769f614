"""Job execution: one sweep, checkpointed, stoppable, artifact-writing.

A :class:`JobExecution` is the synchronous body of one job.  It always
runs off the event loop (the daemon dispatches it through
:func:`~repro.service.offload.offload` into a dedicated single-thread
pool), and it is the layer where the service's crash-safety promises
become mechanism:

* Every job runs under a :class:`~repro.runtime.ResilientRunner` whose
  checkpoint journal lives in the job's own directory.  ``kill -9`` at
  any instant loses at most the in-flight chunks; the next execution of
  the same job resumes from the journal and -- by the runner's
  determinism contract -- produces byte-identical artifacts.
* :meth:`JobExecution.request_stop` (the graceful-drain path) forwards
  to :meth:`ResilientRunner.request_stop`; the sweep raises
  :class:`~repro.runtime.SweepStopped` at the next chunk boundary and
  the outcome is ``checkpointed``, not ``failed``.
* Result artifacts are deterministic JSON written through
  :func:`~repro.core.atomic.atomic_write_text` -- no timestamps, no
  float formatting drift -- so
  ``tests/test_service.py::TestCrashRecovery`` can compare a
  crashed-and-resumed service run byte for byte against an
  uninterrupted direct execution.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path
from typing import Any

from ..core.atomic import atomic_write_text
from ..obs import MetricsRegistry, TraceRecorder
from ..obs.progress import ProgressTracker
from ..runtime import (
    CheckpointError,
    ChunkExecutor,
    ResilientRunner,
    SweepStopped,
    TrialAggregate,
    TrialExecutionError,
)
from .spec import SweepSpec
from .store import JobRecord, JobState

__all__ = ["JobExecution", "JobOutcome"]

RESULT_FILENAME = "result.json"
CHECKPOINT_FILENAME = "checkpoint.jsonl"


@dataclasses.dataclass(frozen=True)
class JobOutcome:
    """What one execution attempt concluded (feeds the store transition)."""

    state: JobState
    error: str | None = None
    result_path: str | None = None
    trials_done: int = 0


def _summarize_burst(stats: TrialAggregate) -> dict[str, Any]:
    return {
        "kind": "burst",
        "trials": stats.trials,
        "pdl_mean": stats.mean,
        "ci95_halfwidth": stats.ci95_halfwidth,
        "loss_fraction": stats.loss_fraction,
        "losses": stats.losses,
        "minimum": stats.minimum,
        "maximum": stats.maximum,
    }


def _summarize_simulate(results: list[Any]) -> dict[str, Any]:
    return {
        "kind": "simulate",
        "trials": len(results),
        "loss_trials": sum(1 for r in results if r.lost_data),
        "data_loss_events": sum(len(r.data_loss_events) for r in results),
        "disk_failures": sum(r.n_disk_failures for r in results),
        "catastrophic_events": sum(r.n_catastrophic_events for r in results),
        "cross_rack_repair_bytes": sum(
            r.cross_rack_repair_bytes for r in results
        ),
        "local_repair_bytes": sum(r.local_repair_bytes for r in results),
    }


_SUMMARIES = {"burst": _summarize_burst, "simulate": _summarize_simulate}


class JobExecution:
    """One blocking execution attempt of one job.

    Thread-safety contract: :meth:`run` executes on the job thread;
    :meth:`request_stop` and :meth:`progress` may be called concurrently
    from the event loop's offload threads.
    """

    def __init__(
        self,
        record: JobRecord,
        state_dir: Path,
        *,
        workers: int = 1,
        backend: ChunkExecutor | None = None,
    ) -> None:
        self._record = record
        self._job_dir = state_dir / "jobs" / record.job_id
        self._workers = workers
        self._backend = backend
        self._lock = threading.Lock()
        self._stop_requested = False
        self._runner: ResilientRunner | None = None
        self._tracker = ProgressTracker()

    @property
    def job_dir(self) -> Path:
        return self._job_dir

    @property
    def result_path(self) -> Path:
        return self._job_dir / RESULT_FILENAME

    @property
    def checkpoint_path(self) -> Path:
        return self._job_dir / CHECKPOINT_FILENAME

    def trials_done(self) -> int:
        """Progress for ``GET /jobs/<id>`` (salvaged trials included)."""
        return self._tracker.snapshot().trials_done

    def request_stop(self) -> None:
        """Checkpoint and stop at the next chunk boundary (drain path)."""
        with self._lock:
            self._stop_requested = True
            if self._runner is not None:
                self._runner.request_stop()

    # ------------------------------------------------------------------
    def _make_runner(self, spec: SweepSpec) -> ResilientRunner:
        runner = ResilientRunner(
            workers=self._workers,
            chunk_size=spec.chunk,
            checkpoint=self.checkpoint_path,
            resume=self.checkpoint_path.exists(),
            backend=self._backend,
            batch=spec.batch,
        )
        runner.progress = self._tracker
        with self._lock:
            self._runner = runner
            # Stop can land between construction attempts; honor it so a
            # drain during runner setup still parks the job.
            if self._stop_requested:
                runner.request_stop()
        return runner

    def run(self) -> JobOutcome:
        """Execute (or resume) the job; never raises.

        Every failure mode is folded into a :class:`JobOutcome` because
        the scheduler must keep serving other jobs no matter how one
        sweep dies -- an escaping exception here would kill the job
        thread and wedge the queue.
        """
        try:
            return self._run_inner()
        except SweepStopped:
            return JobOutcome(
                state=JobState.CHECKPOINTED,
                trials_done=self.trials_done(),
            )
        except (TrialExecutionError, CheckpointError, ValueError, OSError) as exc:
            return JobOutcome(
                state=JobState.FAILED,
                error=f"{type(exc).__name__}: {exc}",
                trials_done=self.trials_done(),
            )
        except BaseException as exc:  # noqa: BLE001 - scheduler must survive
            return JobOutcome(
                state=JobState.FAILED,
                error=f"unexpected {type(exc).__name__}: {exc}",
                trials_done=self.trials_done(),
            )

    def _run_inner(self) -> JobOutcome:
        spec = SweepSpec.from_json(self._record.spec)
        plan = spec.resolve()
        self._job_dir.mkdir(parents=True, exist_ok=True)
        runner = self._make_runner(spec)
        metrics = MetricsRegistry() if spec.collect_metrics else None
        trace = TraceRecorder() if spec.collect_trace else None
        result = plan.execute(runner, metrics=metrics, trace=trace)
        summary = _SUMMARIES[spec.kind](result)

        # Deterministic serialization: sorted keys, fixed separators, no
        # wall-clock fields, so result bytes can be compared across runs.
        atomic_write_text(
            self.result_path,
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
        )
        if trace is not None:
            trace.write_jsonl(self._job_dir / "trace.jsonl")
        if metrics is not None:
            metrics.write_json(self._job_dir / "metrics.json")
        return JobOutcome(
            state=JobState.DONE,
            result_path=str(self.result_path),
            trials_done=self.trials_done(),
        )
