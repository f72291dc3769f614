"""Struct-of-arrays batch-trial engine for the Monte Carlo hot path.

The trial runners execute sweeps one trial at a time: build a context,
call the trial function, collect the value.  That shape is what makes the
determinism contract simple -- trial ``i`` always consumes the ``i``-th
spawned seed stream -- but it leaves easy vector wins on the table: most
trials of the paper's sweeps are *simple* (no catastrophe, no overlapping
repairs, a guaranteed-zero PDL) and their outcome can be computed for a
whole chunk at once with numpy.

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
  everything *around* the draws: damage classification, zero-PDL
  detection, failure-chain advancement, closed-form accounting.
* Trials that enter rare complex states -- a catastrophic pool, failures
  overlapping inside one pool's repair window, an evaluator with no
  vector form -- are **demoted**: the original scalar trial function (or
  scalar evaluator) runs for exactly that trial, on the same context.
  Because ``ctx.rng()`` restarts the trial's private stream, a demotion
  reproduces the scalar path verbatim.  A demoted *burst* goes to the
  scalar evaluator on the sample the batch already drew from that same
  stream, so it is never drawn twice.
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
from ..core.scheme import MLECScheme, SLECScheme
from ..core.types import Level, Placement
from ..runtime.runner import TrialContext
from .burst import (
    BurstGenerator,
    MLECBurstEvaluator,
    SLECBurstEvaluator,
    _burst_trial,
    _grid_cell_trial,
)
from .failures import ExponentialFailures, initial_failure_times
from .simulator import MLECSystemSimulator, SystemSimResult

__all__ = [
    "BATCH_MIN_TRIALS",
    "BatchStats",
    "batch_impl_for",
    "register_batch_impl",
    "resolve_batch_mode",
    "simulate_batch_impl",
]

#: ``batch="auto"`` engages the batch engine only for chunks at least
#: this large (unless the implementation registered its own minimum);
#: below it the array setup costs more than it saves.
BATCH_MIN_TRIALS = 8

#: Valid values of the ``batch`` knob.
BATCH_MODES = ("auto", "on", "off")


@dataclasses.dataclass(frozen=True)
class BatchStats:
    """How a batched chunk split: trials vectorized vs. demoted to scalar.

    ``demotions`` counts demoted trials by reason: ``traced``,
    ``time_tie`` and ``parity_window`` (simulate), ``undecided`` and
    ``no_vector_form`` (bursts).
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

#: Scalar trial function -> (batch implementation, ``auto`` chunk minimum).
_IMPLS: dict[Callable[..., Any], tuple[BatchImpl, int]] = {}


def register_batch_impl(
    scalar_fn: Callable[..., Any],
    min_trials: int = BATCH_MIN_TRIALS,
) -> Callable[[BatchImpl], BatchImpl]:
    """Register a batch implementation for a scalar trial function.

    Used as a decorator::

        @register_batch_impl(_burst_trial)
        def _burst_trial_batch(fn, contexts, args): ...

    ``min_trials`` is the smallest chunk ``batch="auto"`` hands to the
    implementation; a trial function whose every trial is itself a block
    of work (a heatmap cell of many bursts) registers ``1``.  The
    registry is keyed by the function object itself, so a worker that
    unpickled ``scalar_fn`` by reference resolves the same entry.
    """

    def decorate(impl: BatchImpl) -> BatchImpl:
        _IMPLS[scalar_fn] = (impl, min_trials)
        return impl

    return decorate


def batch_impl_for(fn: Callable[..., Any]) -> BatchImpl | None:
    """The registered batch implementation for ``fn``, if any."""
    entry = _IMPLS.get(fn)
    return entry[0] if entry is not None else None


def resolve_batch_mode(mode: str, fn: Callable[..., Any], n_trials: int) -> bool:
    """Decide whether a chunk of ``n_trials`` trials of ``fn`` runs batched.

    ``"off"`` never batches; ``"on"`` batches whenever ``fn`` has a
    registered implementation; ``"auto"`` additionally requires the chunk
    to reach the implementation's registered minimum (by default
    :data:`BATCH_MIN_TRIALS`) so tiny chunks skip the setup cost.  The
    decision affects speed only -- results are bit-identical either way.
    """
    if mode not in BATCH_MODES:
        raise ValueError(
            f"batch mode must be one of {BATCH_MODES}, got {mode!r}"
        )
    entry = _IMPLS.get(fn)
    if mode == "off" or entry is None:
        return False
    if mode == "on":
        return True
    return n_trials >= entry[1]


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
def _pool_damage_counts(
    samples: AnyArray, divisor: int, n_pools: int
) -> AnyArray:
    """Per-trial per-pool failed-disk counts for stacked burst samples.

    ``samples`` is ``(trials, failures)`` of global disk ids; pools are
    ``id // divisor`` (both local placements and SLEC pools have this
    shape).  Pure integer arithmetic: exact by construction.
    """
    trials = samples.shape[0]
    keys = samples // divisor + np.arange(trials)[:, None] * n_pools
    counts = np.bincount(keys.ravel(), minlength=trials * n_pools)
    return counts.reshape(trials, n_pools)


def _classify_burst_pdls(evaluator: Any, samples: AnyArray) -> AnyArray | None:
    """Vectorized PDL classification of stacked burst samples.

    Returns a float array aligned with ``samples`` rows: an exact PDL
    where the evaluator's scalar result is known without integration
    (``0.0`` below the loss threshold, ``1.0``/``0.0`` for the fully
    deterministic clustered SLEC placements) and ``NaN`` where the trial
    must be demoted to the scalar evaluator.  ``None`` means the
    evaluator has no vector form at all (e.g. LRC): demote everything.
    """
    scheme = evaluator.scheme
    if isinstance(evaluator, MLECBurstEvaluator) and isinstance(
        scheme, MLECScheme
    ):
        if scheme.local_placement is Placement.CLUSTERED:
            divisor = scheme.params.n_l
        else:
            divisor = scheme.dc.disks_per_enclosure
        n_pools = scheme.dc.total_disks // divisor
        counts = _pool_damage_counts(samples, divisor, n_pools)
        n_catastrophic = (counts > scheme.params.p_l).sum(axis=1)
        values = np.full(samples.shape[0], np.nan)
        values[n_catastrophic <= scheme.params.p_n] = 0.0
        return values

    if isinstance(evaluator, SLECBurstEvaluator) and isinstance(
        scheme, SLECScheme
    ):
        p = scheme.params.p
        if samples.shape[1] <= p:
            return np.zeros(samples.shape[0])
        if scheme.level is Level.LOCAL:
            if scheme.placement is Placement.CLUSTERED:
                divisor = scheme.params.n
                n_pools = scheme.dc.total_disks // divisor
                counts = _pool_damage_counts(samples, divisor, n_pools)
                return np.where((counts > p).any(axis=1), 1.0, 0.0)
            divisor = scheme.dc.disks_per_enclosure
            n_pools = scheme.dc.total_disks // divisor
            counts = _pool_damage_counts(samples, divisor, n_pools)
            values = np.full(samples.shape[0], np.nan)
            values[~(counts > p).any(axis=1)] = 0.0
            return values
        if scheme.placement is Placement.CLUSTERED:
            dpr = scheme.dc.disks_per_rack
            racks = samples // dpr
            keys = (racks // scheme.params.n) * dpr + samples % dpr
            n_keys = (scheme.dc.racks // scheme.params.n + 1) * dpr
            counts = _pool_damage_counts(keys, 1, n_keys)
            return np.where((counts > p).any(axis=1), 1.0, 0.0)
        return None  # network-Dp integrates over placement: no vector form

    return None  # LRC (and unknown evaluators): scalar only


def _slec_trivial_zero(evaluator: Any, failures: int) -> bool:
    """True when every burst of this size is a guaranteed-zero PDL.

    The SLEC evaluator returns ``0.0`` whenever the burst has at most
    ``p`` failures -- independent of *which* disks failed -- so the
    sample itself is never needed.  The trial's generator is private and
    the sample is observed nowhere else, so skipping the draw entirely is
    exact.
    """
    return (
        isinstance(evaluator, SLECBurstEvaluator)
        and failures <= evaluator.scheme.params.p
    )


@register_batch_impl(_burst_trial)
def _burst_trial_batch(
    fn: Callable[..., Any],
    contexts: Sequence[TrialContext],
    args: tuple[Any, ...],
) -> tuple[list[Any], BatchStats]:
    """Batch form of :func:`repro.sim.burst._burst_trial`.

    Samples every trial's burst on its private stream through one shared
    generator (one topology construction per chunk instead of one per
    trial), classifies guaranteed PDLs for the whole chunk at once, and
    demotes only the undecided trials to the scalar evaluator -- on the
    burst already drawn, so no trial samples twice.
    """
    evaluator, failures, racks, dc = args
    values: list[Any] = []
    batched = 0
    demotions: Counter[str] = Counter()
    reason = "undecided"

    if _slec_trivial_zero(evaluator, failures):
        classified: AnyArray | None = np.zeros(len(contexts))
    else:
        gen = BurstGenerator(dc)
        samples = np.empty((len(contexts), failures), dtype=np.int64)
        # Sampling replays each trial's private stream: the draws are
        # inherently per-trial and stay scalar by design.
        for i, ctx in enumerate(contexts):  # simlint: disable=SL010
            gen.rng = ctx.rng()
            samples[i] = gen.sample(failures, racks)
        classified = _classify_burst_pdls(evaluator, samples)
        if classified is None:
            classified = np.full(len(contexts), np.nan)
            reason = "no_vector_form"

    for i, ctx in enumerate(contexts):  # simlint: disable=SL010
        pdl = float(classified[i])
        if pdl != pdl:  # NaN: the scalar evaluator decides this burst
            pdl = evaluator.pdl_of_burst(samples[i])
            demotions[reason] += 1
        else:
            batched += 1
        if ctx.metrics is not None:
            ctx.metrics.counter("burst.trials").inc()
            ctx.metrics.counter("burst.loss_trials").inc(int(pdl > 0.0))
        if ctx.trace is not None:
            ctx.trace.event(
                0.0, "burst.trial", failures=failures, racks=racks,
                pdl=float(pdl),
            )
        values.append(pdl)
    return values, BatchStats(batched, dict(demotions))


@register_batch_impl(_grid_cell_trial, min_trials=1)
def _grid_cell_trial_batch(
    fn: Callable[..., Any],
    contexts: Sequence[TrialContext],
    args: tuple[Any, ...],
) -> tuple[list[Any], BatchStats]:
    """Batch form of :func:`repro.sim.burst._grid_cell_trial`.

    Each context is one heatmap cell; its bursts are classified as a
    block and only bursts the classifier cannot decide go through the
    scalar evaluator.  The per-cell mean reproduces the scalar fold:
    adding a guaranteed ``0.0`` is an exact identity, so folding the
    nonzero PDLs in burst order matches ``total += pdl`` bit-for-bit.
    """
    cells, evaluator, trials, dc = args
    gen = BurstGenerator(dc)
    values: list[Any] = []
    batched = 0
    demotions: Counter[str] = Counter()

    for ctx in contexts:  # simlint: disable=SL010 -- per-cell private streams
        _i, _j, failures, racks = cells[ctx.index]
        if _slec_trivial_zero(evaluator, failures):
            values.append(0.0)
            batched += 1
            continue
        gen.rng = ctx.rng()
        samples = np.empty((trials, failures), dtype=np.int64)
        for k in range(trials):  # simlint: disable=SL010 -- sequential draws
            samples[k] = gen.sample(failures, racks)
        classified = _classify_burst_pdls(evaluator, samples)
        reason = "undecided"
        if classified is None:
            classified = np.full(trials, np.nan)
            reason = "no_vector_form"
        cell_demoted = False
        total = 0.0
        for k in range(trials):  # simlint: disable=SL010 -- scalar fold order
            pdl = float(classified[k])
            if pdl != pdl:  # NaN: this burst needs the scalar evaluator
                pdl = float(evaluator.pdl_of_burst(samples[k]))
                cell_demoted = True
            total += pdl
        values.append(total / trials)
        if cell_demoted:
            demotions[reason] += 1
        else:
            batched += 1
    return values, BatchStats(batched, dict(demotions))


# ----------------------------------------------------------------------
# Full-system simulator batching (cli._simulate_trial)
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


def _record_simple_trial_metrics(
    ctx: TrialContext, result: SystemSimResult
) -> None:
    """Replay ``MLECSystemSimulator.run``'s end-of-run counter block."""
    if ctx.metrics is None:
        return
    m = ctx.metrics
    m.counter("sim.trials").inc()
    m.counter("sim.disk_failures").inc(result.n_disk_failures)
    m.counter("sim.catastrophic_events").inc(0)
    m.counter("sim.data_loss_events").inc(0)
    m.counter("sim.cross_rack_repair_bytes").inc(0.0)
    m.counter("sim.local_repair_bytes").inc(result.local_repair_bytes)
    m.counter("sim.transient_outages").inc(0)
    m.counter("sim.sector_errors").inc(0)
    m.counter("sim.scrubs").inc(0)
    m.counter("sim.bandwidth_changes").inc(0)
    m.counter("sim.net_repair_seconds").inc(0.0)


#: Replacement draws requested beyond the chain's known length, per
#: draw call.  Over-drawing is free: the trial's stream is private and
#: dropped after the walk, and a demoted trial rebuilds its own.
_DRAW_MARGIN = 32


def _failure_chain(
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

    ``times`` are the initial per-disk failure times (indexed by disk).
    Returns the processed failures' times and disks in event order plus a
    demotion reason (``None`` when the trial is simple).  The scalar
    event loop processes failures in ``(t, disk)`` order while
    ``t < mission_time`` and draws one replacement per processed failure
    (``t + rng.exponential(scale)``), so the k-th processed failure takes
    the k-th draw of the stream: one block of draws, merged in order,
    consumes the stream exactly as the sequential calls would.  With
    ``margin=0`` the walk draws exactly one value per processed failure.

    A trial demotes on an exact time tie between consecutive failures
    (the scalar order then depends on queue sequence numbers) or when a
    failure finds ``p_l`` earlier failures of its pool still inside
    their inclusive repair window (the pool reaches its parity budget).
    """
    disks = np.flatnonzero(times < mission_time)
    chain_t = times[disks]
    order = np.argsort(chain_t, kind="stable")  # disks ascend: (t, disk)
    chain_t, chain_d = chain_t[order], disks[order]
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


def simulate_batch_impl(
    fn: Callable[..., Any],
    contexts: Sequence[TrialContext],
    args: tuple[Any, ...],
) -> tuple[list[Any], BatchStats]:
    """Batch form of the CLI's full-system simulation trial.

    Replays each trial's disk-failure chain -- the only part of a plain
    run that consumes random draws -- with array operations
    (:func:`_failure_chain`): the initial per-disk failure times are one
    vectorized draw (the same call the simulator makes), and the
    replacement draws come as one block merged into the sorted failures,
    so the stream is consumed in the scalar order and a mission costs
    little more than its initial draws.  Failures overlapping below the
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
    scheme, method, afr, mission_time, base_seed = args
    sim = MLECSystemSimulator(
        scheme, method, failure_model=ExponentialFailures(afr)
    )
    model = sim.failure_model
    assert isinstance(model, ExponentialFailures)
    scale = 1.0 / model.rate
    total_disks = sim.topo.total_disks
    capacity = scheme.dc.disk_capacity_bytes
    # The scalar run's local drain window with the nominal bandwidth
    # factor (1.0): same expression, hence the same float.
    repair_window = sim.failures.detection_time + capacity / (
        sim._local_rate * 1.0
    )
    if scheme.local_placement is Placement.CLUSTERED:
        pool_divisor = scheme.params.n_l
    else:
        pool_divisor = scheme.dc.disks_per_enclosure

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
        # Same derivation the scalar trial feeds `sim.run(seed=...)`:
        # replaying its stream verbatim is the whole point here.
        rng = np.random.default_rng(base_seed + ctx.index)  # simlint: disable=SL002
        times = initial_failure_times(model, rng, total_disks)
        chain_t, _disks, reason = _failure_chain(
            times, rng, scale, mission_time, pool_divisor,
            scheme.params.p_l, repair_window,
        )
        if reason is not None:
            values.append(fn(ctx, *args))
            demotions[reason] += 1
            continue
        result = _simple_trial_result(mission_time, len(chain_t), capacity)
        _record_simple_trial_metrics(ctx, result)
        values.append(result)
        batched += 1
    return values, BatchStats(batched, dict(demotions))
