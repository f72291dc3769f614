"""Simulation-as-a-service: the crash-safe ``mlec-sim serve`` daemon.

The paper's results are design-space sweeps -- hundreds of scheme x
config cells -- and the ROADMAP's north star serves those sweeps to many
users from a long-lived daemon rather than a fresh campaign per request.
This package is that daemon, built so that every robustness property is
load-bearing:

* **Durable job store** (:mod:`repro.service.store`): job metadata lives
  in a WAL-style JSONL file with the same fsync/atomic-write discipline
  as the :class:`~repro.runtime.ResilientRunner` checkpoint journal.  A
  job *is* a resumable checkpoint -- ``kill -9`` the daemon mid-job,
  restart it, and the job resumes from its last journaled chunk with
  byte-identical result artifacts.
* **Content-hash dedupe cache**: jobs are keyed by the sha256 of their
  resolved ``(fn, args, trials, seed)`` -- the same fingerprint the
  checkpoint journal header records -- so an identical resubmitted spec
  is served from the cache without executing a single trial, and a
  concurrent duplicate attaches to the in-flight job.
* **Bounded admission** (:mod:`repro.service.queue`): the priority queue
  sheds load explicitly (HTTP 429 + ``Retry-After``) instead of
  collapsing under it.
* **Graceful drain**: SIGTERM checkpoints the running job at the next
  chunk boundary (:class:`~repro.runtime.SweepStopped`), marks it
  ``checkpointed``, and exits; the next daemon picks it back up.

See ``docs/service.md`` for the HTTP API, the job state machine, and the
durability/trust model.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .daemon import ServiceConfig, SimulationService, serve
    from .queue import BoundedJobQueue, QueueFull
    from .spec import SpecError, SweepSpec
    from .store import JobRecord, JobState, JobStore, JobStoreError

#: Public name -> defining submodule.  Resolved on first access (PEP 562),
#: so importing one submodule -- ``repro.service.spec`` for a CLI sweep --
#: does not load the daemon's asyncio/HTTP stack.
_EXPORTS = {
    "BoundedJobQueue": "queue",
    "JobRecord": "store",
    "JobState": "store",
    "JobStore": "store",
    "JobStoreError": "store",
    "QueueFull": "queue",
    "ServiceConfig": "daemon",
    "SimulationService": "daemon",
    "SpecError": "spec",
    "SweepSpec": "spec",
    "serve": "daemon",
}

__all__ = [
    "BoundedJobQueue",
    "JobRecord",
    "JobState",
    "JobStore",
    "JobStoreError",
    "QueueFull",
    "ServiceConfig",
    "SimulationService",
    "SpecError",
    "SweepSpec",
    "serve",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
