"""Fault-tolerant campaign execution: checkpoint/resume, retry, salvage.

The headline figures of the paper come from Monte Carlo campaigns that
run for hours at realistic trial counts.  A plain
:class:`~repro.runtime.TrialRunner` gives each chunk one attempt and
keeps nothing on disk: one OOM-killed worker, one flaky trial, or one
Ctrl-C ends the sweep with only its salvaged prefix.  Real
erasure-coded storage systems treat recovery-under-failure as the normal
operating mode, and the harness that simulates them should too.
:class:`ResilientRunner` runs the same scheduler (dispatch, retry,
watchdog, pool rebuild, in-order fold all live in
:mod:`repro.runtime.runner`) and adds only what differs:

* **Checkpointing.**  Completed chunk results are journaled to a
  WAL-style JSONL file as they arrive (schema-versioned, one fsynced
  record per line, following the :mod:`repro.obs.trace` serialization
  conventions).  A crash at any instant leaves at worst one torn final
  line, which recovery drops; every earlier chunk is durable.
* **Retry with backoff.**  A wider :class:`RetryPolicy` budget (three
  attempts by default) and an optional per-chunk watchdog
  (``chunk_timeout``) -- exponential backoff with *deterministic*
  per-attempt jitter derived from the chunk index, never from a wall
  clock or fresh RNG.  A ``BrokenProcessPool`` tears the executor down,
  rebuilds it, and reschedules only the chunk ranges still missing;
  completed chunks are never re-run.
* **Salvage + resume.**  On unrecoverable failure the raised
  :class:`~repro.runtime.TrialExecutionError` carries the completed
  trial-order prefix, the journal keeps every completed chunk, and
  ``mlec-sim resume <checkpoint>`` re-executes the original
  command with the journal preloaded.  Because trial ``i`` always owns
  the stream keyed ``(seed, i)`` and results are folded in chunk
  order *after* execution, a resumed sweep is bitwise identical to an
  uninterrupted one at any worker count.

Recovery behavior is observable through the runner's *operational*
telemetry (:attr:`ResilientRunner.ops_metrics` /
:attr:`ResilientRunner.ops_trace`: ``runtime.chunk_retries``,
``runtime.pool_rebuilds``, ``runtime.chunks_salvaged`` counters and
``checkpoint.write`` / ``chunk.retry`` trace events).  Operational
telemetry is deliberately kept out of the result ``metrics``/``trace``
sinks: those must stay bitwise identical whether or not a sweep was
interrupted, so recovery facts -- like wall-clock facts -- live apart.

.. warning:: **Checkpoints are trusted input.**  Chunk payloads are
   pickled (trial values, metrics, and trace records are arbitrary
   Python objects, so no restricted encoding can represent them), and
   unpickling attacker-controlled bytes executes arbitrary code.  The
   corruption checks validate JSON structure and schema version; they
   cannot make pickle safe.  Only resume journals your own runs wrote,
   with the same trust you would give the simulation code itself.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import time
from collections.abc import Mapping, Sequence
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import Any, TextIO

from ..core.atomic import fsync_dir
from .executors.base import ChunkExecutor, ChunkPayload
from .runner import RetryPolicy, SweepStopped, TrialRunner, _Bounds, args_digest

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "JournalWriter",
    "RetryPolicy",
    "ResilientRunner",
    "SweepStopped",
    "args_digest",
    "read_checkpoint_argv",
]

#: Version stamp carried by every journal record; bumped on any change to
#: the record shapes below so old journals fail loudly instead of subtly.
CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint journal is missing, corrupt, or from a different run."""


# ----------------------------------------------------------------------
# Checkpoint journal (WAL-style JSONL)
# ----------------------------------------------------------------------
#
# Record shapes (fixed key order, compact separators, one per line):
#
#   {"v": 1, "kind": "meta",  "data": {"argv": [...] | null,
#                                      "created_unix": <float>}}
#   {"v": 1, "kind": "sweep", "sweep": <int>, "data": {<sweep header>}}
#   {"v": 1, "kind": "chunk", "sweep": <int>, "lo": <int>, "hi": <int>,
#    "payload": "<base64 pickle of the worker chunk payload>"}
#
# A runner may execute several sweeps against one journal (e.g. stage-1
# splitting runs one map() per accelerated AFR); sweeps are identified by
# their call ordinal and validated against the recorded header on resume.


def _encode_payload(payload: ChunkPayload) -> str:
    return base64.b64encode(pickle.dumps(payload, protocol=4)).decode("ascii")


def _decode_payload(text: str, where: str) -> ChunkPayload:
    # pickle.loads on untrusted bytes is arbitrary code execution; see
    # the module-level trust warning.  Journals are as trusted as code.
    try:
        obj = pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise CheckpointError(f"{where}: undecodable chunk payload: {exc}") from exc
    if not isinstance(obj, ChunkPayload):
        raise CheckpointError(
            f"{where}: chunk payload decoded to {type(obj).__name__}, "
            "not a chunk result"
        )
    return obj


@dataclasses.dataclass
class _LoadedCheckpoint:
    """Everything recoverable from an existing journal file."""

    argv: list[str] | None
    sweeps: dict[int, dict[str, Any]]
    chunks: dict[int, dict[_Bounds, ChunkPayload]]
    dropped_tail: bool
    #: Byte offset just past the last complete (newline-terminated)
    #: record; everything beyond it is the torn tail.
    valid_bytes: int


def _load_checkpoint(path: Path) -> _LoadedCheckpoint:
    """Parse a journal; strict except for a torn (crash-truncated) tail.

    Every newline-terminated line must be a valid, schema-versioned
    record -- corruption in the journal body is rejected loudly rather
    than silently skewing a resumed sweep.  A final line without its
    terminating newline is the expected signature of a writer killed
    mid-append and is dropped (its chunk simply re-runs).
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw:
        raise CheckpointError(f"{path} is empty; not a checkpoint journal")
    segments = raw.split(b"\n")
    dropped_tail = segments[-1] != b""
    valid_bytes = len(raw) - len(segments[-1])
    lines = segments[:-1]
    if not lines:
        raise CheckpointError(
            f"{path} holds no complete records; not a checkpoint journal"
        )

    argv: list[str] | None = None
    sweeps: dict[int, dict[str, Any]] = {}
    chunks: dict[int, dict[_Bounds, ChunkPayload]] = {}
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{where}: not a valid record: {exc}") from exc
        if not isinstance(record, dict):
            raise CheckpointError(f"{where}: record must be an object")
        if record.get("v") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"{where}: unsupported checkpoint schema version "
                f"{record.get('v')!r} (this reader understands "
                f"{CHECKPOINT_SCHEMA_VERSION})"
            )
        kind = record.get("kind")
        if lineno == 1 and kind != "meta":
            raise CheckpointError(
                f"{where}: first record must be 'meta'; not a checkpoint journal"
            )
        if kind == "meta":
            data = record.get("data")
            if not isinstance(data, dict):
                raise CheckpointError(f"{where}: meta record has no data object")
            recorded_argv = data.get("argv")
            if recorded_argv is not None:
                if not isinstance(recorded_argv, list) or not all(
                    isinstance(a, str) for a in recorded_argv
                ):
                    raise CheckpointError(f"{where}: meta argv must be strings")
                argv = list(recorded_argv)
        elif kind == "sweep":
            sweep = record.get("sweep")
            data = record.get("data")
            if not isinstance(sweep, int) or not isinstance(data, dict):
                raise CheckpointError(f"{where}: malformed sweep record")
            sweeps[sweep] = data
        elif kind == "chunk":
            sweep = record.get("sweep")
            lo, hi = record.get("lo"), record.get("hi")
            text = record.get("payload")
            if (
                not isinstance(sweep, int)
                or not isinstance(lo, int)
                or not isinstance(hi, int)
                or not isinstance(text, str)
                or not 0 <= lo < hi
            ):
                raise CheckpointError(f"{where}: malformed chunk record")
            if sweep not in sweeps:
                raise CheckpointError(
                    f"{where}: chunk for sweep {sweep} precedes its sweep header"
                )
            chunks.setdefault(sweep, {})[(lo, hi)] = _decode_payload(text, where)
        else:
            raise CheckpointError(f"{where}: unknown record kind {kind!r}")
    return _LoadedCheckpoint(
        argv=argv,
        sweeps=sweeps,
        chunks=chunks,
        dropped_tail=dropped_tail,
        valid_bytes=valid_bytes,
    )


def _truncate_torn_tail(path: Path, loaded: _LoadedCheckpoint) -> None:
    """Cut a torn final line off the journal before any further append.

    The journal writer opens in append mode, so a partial record left by
    a killed writer must be removed first -- otherwise the resumed run's
    first record would be concatenated onto it, rendering the journal
    permanently unloadable.
    """
    if not loaded.dropped_tail:
        return
    with open(path, "r+b") as fh:
        fh.truncate(loaded.valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    loaded.dropped_tail = False


def read_checkpoint_argv(path: str | Path) -> list[str]:
    """The ``mlec-sim`` argv recorded in a checkpoint (for ``resume``)."""
    loaded = _load_checkpoint(Path(path))
    if loaded.argv is None:
        raise CheckpointError(
            f"{path} does not record a command line; it was written by a "
            "library run and can only be resumed programmatically"
        )
    return loaded.argv


class JournalWriter:
    """Append fsynced JSONL records; durability is the whole point.

    Creating the journal also fsyncs its parent directory: the file's
    bytes are made durable by the per-append fsync, but the directory
    entry naming the file is not -- without the directory fsync a power
    cut just after creation can leave a fully-fsynced journal that no
    longer has a name.  (The service job store reuses this writer for
    its own WAL, so the discipline is shared.)
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        fresh = not path.exists()
        self._fh: TextIO = open(path, "a", encoding="utf-8")
        if fresh:
            fsync_dir(path.parent)

    def append(self, record: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# ----------------------------------------------------------------------
# The resilient runner
# ----------------------------------------------------------------------
class ResilientRunner(TrialRunner):
    """A :class:`TrialRunner` that survives crashes, retries, and resumes.

    The scheduler is :class:`TrialRunner`'s; this class adds a
    checkpoint journal, a retry budget (``policy``), and a per-chunk
    watchdog (``chunk_timeout``).  Drop-in compatible with every
    campaign entry point that accepts a runner (``burst_pdl_stats`` / ``burst_pdl_grid``,
    ``stage1_pool_rate``, :class:`~repro.faults.ChaosCampaign`, the CLI
    subcommands): :meth:`run` and :meth:`map` keep the base signatures
    and the bitwise any-worker-count determinism contract.

    Parameters (beyond :class:`TrialRunner`'s)
    ------------------------------------------
    checkpoint:
        Path of the JSONL journal.  ``None`` disables checkpointing
        (retry/salvage still apply).
    resume:
        Continue from an existing journal at ``checkpoint``.  Without
        this flag an existing journal is refused rather than clobbered.
    policy:
        :class:`RetryPolicy` governing per-chunk retries.
    chunk_timeout:
        Seconds one dispatched chunk may run before its pool is torn
        down and the chunk is retried (pool path only; the in-process
        path cannot preempt a running chunk).
    argv:
        Command line to record in the journal so ``mlec-sim resume``
        can re-execute the producing command.
    backend:
        Optional :class:`~repro.runtime.executors.ChunkExecutor`
        deciding where chunks run (see :class:`TrialRunner`).  The
        checkpoint journal records *chunk ranges*, never hosts, so a
        sweep journaled under one backend (or host count) resumes
        byte-identically under any other.
    """

    def __init__(
        self,
        workers: int | None = 1,
        chunk_size: int | None = None,
        mp_context: BaseContext | None = None,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        policy: RetryPolicy | None = None,
        chunk_timeout: float | None = None,
        argv: Sequence[str] | None = None,
        backend: ChunkExecutor | None = None,
        batch: str = "auto",
    ) -> None:
        super().__init__(workers, chunk_size, mp_context, backend, batch)
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be > 0, got {chunk_timeout}")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        self.policy = policy if policy is not None else RetryPolicy()
        self.chunk_timeout = chunk_timeout
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self._argv = list(argv) if argv is not None else None
        self._loaded: _LoadedCheckpoint | None = None
        self._writer: JournalWriter | None = None
        if self.checkpoint_path is not None:
            if self.checkpoint_path.exists():
                if not resume:
                    raise CheckpointError(
                        f"checkpoint {self.checkpoint_path} already exists; "
                        "pass resume=True / --resume (or run `mlec-sim resume "
                        f"{self.checkpoint_path}`) to continue it, or remove it"
                    )
                self._loaded = _load_checkpoint(self.checkpoint_path)
                _truncate_torn_tail(self.checkpoint_path, self._loaded)
            elif resume:
                raise CheckpointError(
                    f"cannot resume: no checkpoint at {self.checkpoint_path}"
                )

    def _execute(self, *args: Any, **kwargs: Any) -> list[Any]:
        try:
            return super()._execute(*args, **kwargs)
        finally:
            # Chunks journaled so far are durable (each append is
            # fsynced).  Close the journal whether the sweep completed,
            # failed, or was interrupted: library callers must not leak
            # the handle across sweeps, and a killed run must always be
            # resumable.  The next sweep reopens it in append mode.
            self.close()

    def close(self) -> None:
        """Flush and close the journal (safe to call repeatedly).

        :meth:`run` / :meth:`map` already close the journal on every
        exit path (the next sweep reopens it in append mode), so library
        callers need no explicit cleanup; ``close()`` and the context
        manager remain for belt-and-braces use.
        """
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "ResilientRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def recovery_summary(self) -> str:
        """One human line of recovery facts, for the CLI to print."""
        counters = self.ops_metrics.snapshot()["counters"]

        def count(name: str) -> int:
            value = counters.get(name, 0)
            return int(value) if isinstance(value, (int, float)) else 0

        salvaged = count("runtime.chunks_salvaged")
        retries = count("runtime.chunk_retries")
        rebuilds = count("runtime.pool_rebuilds")
        steals = count("runtime.steals")
        deaths = count("runtime.worker_deaths")
        fallbacks = count("runtime.backend_fallbacks")
        written = count("checkpoint.chunk_writes")
        if self.checkpoint_path is None:
            parts = ["no journal"]
        else:
            parts = [f"{written} chunk(s) journaled"]
        parts.append(f"{salvaged} salvaged from checkpoint")
        parts.append(f"{retries} chunk retries")
        parts.append(f"{rebuilds} pool rebuilds")
        if steals:
            parts.append(f"{steals} chunk steals")
        if deaths:
            parts.append(f"{deaths} worker deaths")
        if fallbacks:
            parts.append(f"{fallbacks} backend fallbacks")
        return "resilience: " + ", ".join(parts)

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _salvage_note(self, payloads: dict[_Bounds, ChunkPayload]) -> str:
        note = super()._salvage_note(payloads)
        if self.checkpoint_path is not None:
            note += f"; journaled to {self.checkpoint_path}"
        return note

    def _ensure_writer(self) -> JournalWriter | None:
        if self.checkpoint_path is None:
            return None
        if self._writer is None:
            fresh = not self.checkpoint_path.exists()
            self._writer = JournalWriter(self.checkpoint_path)
            if fresh:
                self._writer.append(
                    {
                        "v": CHECKPOINT_SCHEMA_VERSION,
                        "kind": "meta",
                        "data": {"argv": self._argv, "created_unix": time.time()},
                    }
                )
        return self._writer

    def _begin_sweep(
        self, sweep: int, header: dict[str, Any]
    ) -> dict[_Bounds, ChunkPayload]:
        """Validate this sweep against its journal header and return the
        chunks it already completed, or journal a fresh header."""
        loaded = self._loaded
        if loaded is not None and sweep in loaded.sweeps:
            recorded = loaded.sweeps[sweep]
            for key in (
                "mode",
                "trials",
                "seed",
                "fn",
                "args_sha256",
                "collect_metrics",
                "collect_trace",
                "rng_stream",
            ):
                if recorded.get(key) != header[key]:
                    raise CheckpointError(
                        f"checkpoint sweep {sweep} was recorded with "
                        f"{key}={recorded.get(key)!r} but this run uses "
                        f"{header[key]!r}; refusing to mix results from "
                        "different sweeps"
                    )
            if not isinstance(recorded.get("chunk"), int) or recorded["chunk"] < 1:
                raise CheckpointError(
                    f"checkpoint sweep {sweep} records no valid chunk size"
                )
            # Reuse the recorded chunking so journaled ranges stay
            # aligned even if --workers changed between runs.
            chunk = header["chunk"] = int(recorded["chunk"])
            payloads = dict(loaded.chunks.get(sweep, {}))
            stray = {
                (lo, hi)
                for lo, hi in payloads
                if lo % chunk or hi != min(lo + chunk, header["trials"])
            }
            if stray:
                raise CheckpointError(
                    f"checkpoint sweep {sweep} holds chunk ranges "
                    f"{sorted(stray)} that do not align with the recorded "
                    f"chunking ({chunk} trials/chunk); the journal is "
                    "inconsistent"
                )
            if payloads:
                self.ops_metrics.counter("runtime.chunks_salvaged").inc(
                    len(payloads)
                )
                self.ops_trace.event(
                    self._elapsed(),
                    "checkpoint.salvage",
                    sweep=sweep,
                    chunks=len(payloads),
                )
            return payloads
        writer = self._ensure_writer()
        if writer is not None:
            writer.append(
                {
                    "v": CHECKPOINT_SCHEMA_VERSION,
                    "kind": "sweep",
                    "sweep": sweep,
                    "data": header,
                }
            )
            self.ops_trace.event(
                self._elapsed(), "checkpoint.write", record="sweep", sweep=sweep
            )
        return {}

    def _record_chunk(
        self, sweep: int, bounds: _Bounds, payload: ChunkPayload
    ) -> None:
        writer = self._ensure_writer()
        if writer is None:
            return
        lo, hi = bounds
        with self.spans.span(
            "span.checkpoint_write", key=("ckpt", sweep, lo, hi), lo=lo, hi=hi
        ):
            writer.append(
                {
                    "v": CHECKPOINT_SCHEMA_VERSION,
                    "kind": "chunk",
                    "sweep": sweep,
                    "lo": lo,
                    "hi": hi,
                    "payload": _encode_payload(payload),
                }
            )
        self.ops_metrics.counter("checkpoint.chunk_writes").inc()
        self.ops_trace.event(
            self._elapsed(),
            "checkpoint.write",
            record="chunk",
            sweep=sweep,
            lo=lo,
            hi=hi,
        )
