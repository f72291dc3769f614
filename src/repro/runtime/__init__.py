"""Execution runtime: parallel, deterministic Monte Carlo sweeps.

The paper's evaluation is Monte Carlo end to end; this package provides
the shared trial engine (:class:`TrialRunner`) that the burst grids,
durability campaigns, and chaos sweeps all fan out through.  It holds
the one chunk scheduler: a plain :class:`TrialRunner` gives each chunk
one attempt and keeps no journal, and :class:`ResilientRunner` runs the
same scheduler with a checkpoint journal (resume) and a wider
deterministic :class:`RetryPolicy` budget.

*Where* chunks run is pluggable: the :mod:`~repro.runtime.executors`
package defines the :class:`ChunkExecutor` protocol with a single-host
:class:`LocalProcessBackend` and a multi-host
:class:`TcpWorkQueueBackend` whose remote workers
(``mlec-sim workers``) survive host death, stragglers, and partitions
without changing a result byte.
"""

from .executors import (
    BackendEvent,
    BackendUnavailable,
    ChunkExecutor,
    LocalProcessBackend,
    TcpWorkQueueBackend,
    make_backend,
    parse_backend_spec,
)
from .resilience import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    ResilientRunner,
    read_checkpoint_argv,
)
from .runner import (
    RetryPolicy,
    RunTelemetry,
    SweepStopped,
    TrialAggregate,
    TrialContext,
    TrialExecutionError,
    TrialRunner,
    args_digest,
)

__all__ = [
    "BackendEvent",
    "BackendUnavailable",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "ChunkExecutor",
    "LocalProcessBackend",
    "ResilientRunner",
    "RetryPolicy",
    "RunTelemetry",
    "SweepStopped",
    "TcpWorkQueueBackend",
    "TrialAggregate",
    "TrialContext",
    "TrialExecutionError",
    "TrialRunner",
    "args_digest",
    "make_backend",
    "parse_backend_spec",
    "read_checkpoint_argv",
]
