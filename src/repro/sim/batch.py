"""Struct-of-arrays batch-trial engine for the Monte Carlo hot path.

The trial runners execute sweeps one trial at a time: build a context,
call the trial function, collect the value.  That shape is what makes the
determinism contract simple -- trial ``i`` always consumes its own
keyed stream -- but it leaves easy vector wins on the table: most
trials of the paper's sweeps are *simple* (no catastrophe, no overlapping
repairs) and their outcome can be computed for a whole chunk at once
with numpy.

This module is that fast path.  A *batch implementation* takes every
:class:`~repro.runtime.TrialContext` of a chunk plus the sweep's ``args``
and returns the same values the scalar loop would have produced,
**bit-identically**:

* Per-trial random draws are never vectorized *across* trials -- each
  trial's generator is private (``ctx.rng()``), so draws that must happen
  replay the scalar call sequence on the trial's own stream.  Within one
  trial, a run of sequential draws becomes one sized call
  (``rng.exponential(scale, size=K)`` equals K scalar calls bit for
  bit), which is how a simulate trial's whole failure chain is merged
  from a single block of replacement draws.  What gets vectorized is
  everything *around* the draws: burst evaluation, failure-chain
  advancement, closed-form accounting.
* Burst trials never demote: every burst evaluator's rows form
  (``pdl_of_bursts``) evaluates a whole chunk of bursts.  Simulate
  trials that enter rare complex states -- failures overlapping inside
  one pool's repair window, an exact time tie -- are **demoted**: the
  original scalar trial function runs for exactly that trial, on the
  same context.  Because ``ctx.rng()`` restarts the trial's private
  stream, a demotion reproduces the scalar path verbatim.
* Telemetry is reproduced exactly: counters are incremented with the same
  exact-integer / same-fold-order arithmetic the scalar loop uses, and
  per-trial trace records are written through each context's own
  recorder.  Trials that would trace complex event interleavings are
  demoted instead of approximated.

The engine is wired in as a per-chunk implementation detail of
:func:`repro.runtime.executors.run_chunk` (the ``batch=auto|on|off``
knob on :class:`~repro.runtime.TrialRunner` /
:class:`~repro.runtime.ResilientRunner`): a chunk first tries its
registered batch implementation; under ``auto`` any error re-runs the
chunk on the scalar loop, so a batch bug can cost time but never
correctness, and under ``on`` the error fails the chunk.  How many
trials ran batched vs. demoted, and why each demoted, is surfaced
through the runner's operational metrics (``sim.batch_trials`` /
``sim.batch_demotions`` / ``sim.batch_demotions.<reason>``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.arrays import AnyArray
from ..core.scheme import MLECScheme
from ..core.types import RepairMethod
from ..runtime.runner import TrialContext
from .burst import BurstGenerator, _burst_trial
from .failures import ExponentialFailures, initial_failures
from .simulator import MLECSystemSimulator, SystemSimResult, record_run_metrics

__all__ = [
    "BATCH_MIN_TRIALS",
    "BatchStats",
    "batch_impl_for",
    "register_batch_impl",
    "resolve_batch_mode",
    "simulate_batch_impl",
    "simulate_trial",
]

#: ``batch="auto"`` engages the batch engine only for chunks at least
#: this large; below it the array setup costs more than it saves.
BATCH_MIN_TRIALS = 8

#: Valid values of the ``batch`` knob.
BATCH_MODES = ("auto", "on", "off")


@dataclasses.dataclass(frozen=True)
class BatchStats:
    """How a batched chunk split: trials vectorized vs. demoted to scalar.

    ``demotions`` counts demoted simulate trials by reason: ``traced``,
    ``time_tie`` and ``parity_window``.  Burst trials never demote.
    """

    batched: int = 0
    demotions: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def demoted(self) -> int:
        return sum(self.demotions.values())


#: A batch implementation: ``impl(scalar_fn, contexts, args)`` returns the
#: values the scalar loop would produce for these contexts, plus stats.
BatchImpl = Callable[
    [Callable[..., Any], Sequence[TrialContext], tuple[Any, ...]],
    tuple[list[Any], BatchStats],
]

#: Scalar trial function -> its batch implementation.
_IMPLS: dict[Callable[..., Any], BatchImpl] = {}


def register_batch_impl(
    scalar_fn: Callable[..., Any],
) -> Callable[[BatchImpl], BatchImpl]:
    """Register a batch implementation for a scalar trial function.

    Used as a decorator::

        @register_batch_impl(_burst_trial)
        def _burst_trial_batch(fn, contexts, args): ...

    The registry is keyed by the function object itself, so a worker that
    unpickled ``scalar_fn`` by reference resolves the same entry.
    """

    def decorate(impl: BatchImpl) -> BatchImpl:
        _IMPLS[scalar_fn] = impl
        return impl

    return decorate


def batch_impl_for(fn: Callable[..., Any]) -> BatchImpl | None:
    """The registered batch implementation for ``fn``, if any."""
    return _IMPLS.get(fn)


def resolve_batch_mode(mode: str, fn: Callable[..., Any], n_trials: int) -> bool:
    """Decide whether a chunk of ``n_trials`` trials of ``fn`` runs batched.

    ``"off"`` never batches; ``"on"`` batches whenever ``fn`` has a
    registered implementation; ``"auto"`` additionally requires the chunk
    to reach :data:`BATCH_MIN_TRIALS` so tiny chunks skip the setup
    cost.  The decision affects speed only -- results are bit-identical
    either way.
    """
    if mode not in BATCH_MODES:
        raise ValueError(
            f"batch mode must be one of {BATCH_MODES}, got {mode!r}"
        )
    if mode == "off" or fn not in _IMPLS:
        return False
    return mode == "on" or n_trials >= BATCH_MIN_TRIALS


# ----------------------------------------------------------------------
# Exact float accumulation helpers
# ----------------------------------------------------------------------
#: Cached left-fold partial sums of repeated ``value + c`` additions, per
#: addend.  ``_fold_repeated_add(c, n)`` must reproduce the scalar loop's
#: ``total += c`` (n times) bit-for-bit, which a single ``n * c`` multiply
#: does not once partial sums exceed 2**53.
_FOLD_CACHE: dict[float, list[float]] = {}


def _fold_repeated_add(addend: float, count: int) -> float:
    sums = _FOLD_CACHE.setdefault(addend, [0.0])
    while len(sums) <= count:
        sums.append(sums[-1] + addend)
    return sums[count]


# ----------------------------------------------------------------------
# Burst-trial batching (sim.burst drivers)
# ----------------------------------------------------------------------
@register_batch_impl(_burst_trial)
def _burst_trial_batch(
    fn: Callable[..., Any],
    contexts: Sequence[TrialContext],
    args: tuple[Any, ...],
) -> tuple[list[Any], BatchStats]:
    """Batch form of :func:`repro.sim.burst._burst_trial`.

    Samples every trial's burst on its private stream through one shared
    generator (one topology construction per chunk instead of one per
    trial), then evaluates the chunk with one
    :meth:`~repro.sim.burst.BurstEvaluator.pdl_of_bursts` call, whose
    row ``i`` is the scalar trial's value.  No trial demotes.
    """
    evaluator, failures, racks, dc = args
    gen = BurstGenerator(dc)
    samples = np.empty((len(contexts), failures), dtype=np.int64)
    # Sampling replays each trial's private stream: the draws are
    # inherently per-trial and stay scalar by design.
    for i, ctx in enumerate(contexts):  # simlint: disable=SL010
        gen.rng = ctx.rng()
        samples[i] = gen.sample(failures, racks)
    values = evaluator.pdl_of_bursts(samples).tolist()
    # Each trial's telemetry goes to its own collectors.
    for ctx, pdl in zip(contexts, values):  # simlint: disable=SL010
        if ctx.metrics is not None:
            ctx.metrics.counter("burst.trials").inc()
            ctx.metrics.counter("burst.loss_trials").inc(int(pdl > 0.0))
        if ctx.trace is not None:
            ctx.trace.event(
                0.0, "burst.trial", failures=failures, racks=racks, pdl=pdl,
            )
    return values, BatchStats(len(contexts))


# ----------------------------------------------------------------------
# Full-system simulator trial and its batching
# ----------------------------------------------------------------------
def _simple_trial_result(
    mission_time: float, n_failures: int, disk_capacity_bytes: float
) -> SystemSimResult:
    """The scalar simulator's result for a run with only isolated failures.

    ``local_repair_bytes`` replays the event loop's ``+= capacity`` fold
    (exact for any capacity); every catastrophe/fault field keeps its
    zero default, exactly as the scalar run would leave it.
    """
    return SystemSimResult(
        mission_time=mission_time,
        n_disk_failures=n_failures,
        n_catastrophic_events=0,
        data_loss_events=[],
        cross_rack_repair_bytes=0.0,
        local_repair_bytes=_fold_repeated_add(disk_capacity_bytes, n_failures),
        max_concurrent_catastrophic=0,
    )


#: Replacement draws requested beyond the chain's known length, per
#: draw call.  Over-drawing is free: the trial's stream is private and
#: dropped after the walk, and a demoted trial rebuilds its own.
_DRAW_MARGIN = 32


def _failure_chain(
    disks: AnyArray,
    times: AnyArray,
    rng: np.random.Generator,
    scale: float,
    mission_time: float,
    pool_divisor: int,
    p_l: int,
    repair_window: float,
    margin: int = _DRAW_MARGIN,
) -> tuple[AnyArray, AnyArray, str | None]:
    """Replay a trial's disk-failure chain with array operations.

    ``disks`` (ascending) and ``times`` are the initial failures before
    the mission end, as :func:`~repro.sim.failures.initial_failures`
    returns them.  Returns the processed failures' times and disks in
    event order plus a demotion reason (``None`` when the trial is
    simple).  The scalar event loop processes failures in ``(t, disk)``
    order while ``t < mission_time`` and draws one replacement per
    processed failure (``t + rng.exponential(scale)``), so the k-th
    processed failure takes the k-th draw of the stream: one block of
    draws, merged in order, consumes the stream exactly as the sequential
    calls would.  With ``margin=0`` the walk draws exactly one value per
    processed failure.

    A trial demotes on an exact time tie between consecutive failures
    (the scalar order then depends on queue sequence numbers) or when a
    failure finds ``p_l`` earlier failures of its pool still inside
    their inclusive repair window (the pool reaches its parity budget).
    """
    order = np.argsort(times, kind="stable")  # disks ascend: (t, disk)
    chain_t, chain_d = times[order], disks[order]
    draws = rng.exponential(scale, size=len(chain_t) + margin)
    start = 0
    while start < len(chain_t):
        short = len(chain_t) - len(draws)
        if short > 0:  # the chain outgrew its block: extend the stream
            more = rng.exponential(scale, size=short + margin)
            draws = np.concatenate((draws, more))
        refail = chain_t[start:] + draws[start:len(chain_t)] < mission_time
        k = int(refail.argmax())
        if not refail[k]:
            break
        k += start
        t_next, disk = chain_t[k] + draws[k], chain_d[k]
        at = int(np.searchsorted(chain_t, t_next, side="right"))
        while chain_t[at - 1] == t_next and chain_d[at - 1] > disk:
            at -= 1  # an exact tie keeps the queue's (t, disk) order
        chain_t = np.concatenate((chain_t[:at], [t_next], chain_t[at:]))
        chain_d = np.concatenate((chain_d[:at], [disk], chain_d[at:]))
        start = k + 1

    n = len(chain_t)
    ties = np.flatnonzero(chain_t[1:] == chain_t[:-1]) + 1
    first_tie = int(ties[0]) if len(ties) else n
    first_full = n
    if n > p_l:
        pools = chain_d // pool_divisor
        by_pool = np.argsort(pools, kind="stable")  # time order per pool
        pt, pp = chain_t[by_pool], pools[by_pool]
        full = (pp[p_l:] == pp[: n - p_l]) & (
            pt[: n - p_l] + repair_window >= pt[p_l:]
        )
        if full.any():
            first_full = int(by_pool[p_l:][full].min())
    # The scalar walk stops at whichever complex event comes first, and
    # checks an event for a tie before its pool's window.
    if first_tie < n and first_tie <= first_full:
        return chain_t, chain_d, "time_tie"
    if first_full < n:
        return chain_t, chain_d, "parity_window"
    return chain_t, chain_d, None


def simulate_trial(
    ctx: TrialContext,
    scheme: MLECScheme,
    method: RepairMethod,
    afr: float,
    mission_time: float,
) -> SystemSimResult:
    """One full-system simulation trial (``mlec-sim simulate``, the
    service's simulate jobs) on the trial's own stream; module-level so
    workers can unpickle it."""
    sim = MLECSystemSimulator(
        scheme, method, failure_model=ExponentialFailures(afr)
    )
    return sim.run(
        mission_time=mission_time,
        seed=ctx.seed_sequence(),
        recorder=ctx.trace,
        metrics=ctx.metrics,
    )


@register_batch_impl(simulate_trial)
def simulate_batch_impl(
    fn: Callable[..., Any],
    contexts: Sequence[TrialContext],
    args: tuple[Any, ...],
) -> tuple[list[Any], BatchStats]:
    """Batch form of :func:`simulate_trial`.

    Replays each trial's disk-failure chain -- the only part of a plain
    run that consumes random draws -- with array operations
    (:func:`_failure_chain`): the initial failures inside the mission are
    one :func:`~repro.sim.failures.initial_failures` draw (the same call
    the simulator makes), and the replacement draws come as one block
    merged into the sorted failures, so the stream is consumed in the
    scalar order and a mission costs little more than its few hundred
    in-mission failures.  Failures overlapping below the
    parity budget are harmless -- they consume no extra draws and touch
    no result field -- so a trial stays on this fast path unless a local
    pool would reach ``p_l`` *concurrent* failures (counting repair
    windows inclusively, so boundary ties demote rather than gamble on
    event order).  That is the gate to every complex state: clustered
    catastrophes need ``failed >= p_l``, and declustered data-loss draws
    need ``work[p_l] > 0``, which provably requires ``p_l``
    window-overlapping failures.  Demoted trials re-run through ``fn``
    on the full event loop; traced trials are always demoted -- the
    scalar event interleaving is the trace contract.
    """
    scheme, method, afr, mission_time = args
    sim = MLECSystemSimulator(
        scheme, method, failure_model=ExponentialFailures(afr)
    )
    model = sim.failure_model
    assert isinstance(model, ExponentialFailures)
    scale = 1.0 / model.rate
    total_disks = sim.topo.total_disks
    capacity = scheme.dc.disk_capacity_bytes
    # The scalar run's local drain window at the nominal bandwidth factor.
    repair_window = sim.local_drain_time()

    values: list[Any] = []
    batched = 0
    demotions: Counter[str] = Counter()
    # Each trial's draws come from its own private stream; the per-trial
    # loop is the stream hand-off, the chain walk itself is vectorized.
    for ctx in contexts:  # simlint: disable=SL010
        if ctx.trace is not None:
            values.append(fn(ctx, *args))
            demotions["traced"] += 1
            continue
        # The stream the scalar trial feeds `sim.run(seed=...)`:
        # replaying it verbatim is the whole point here.
        rng = ctx.rng()
        disks, times = initial_failures(model, rng, total_disks, mission_time)
        chain_t, _disks, reason = _failure_chain(
            disks, times, rng, scale, mission_time, sim.pool_divisor,
            scheme.params.p_l, repair_window,
        )
        if reason is not None:
            values.append(fn(ctx, *args))
            demotions[reason] += 1
            continue
        result = _simple_trial_result(mission_time, len(chain_t), capacity)
        if ctx.metrics is not None:
            record_run_metrics(ctx.metrics, result)
        values.append(result)
        batched += 1
    return values, BatchStats(batched, dict(demotions))
