"""Correlated failure-burst simulation (paper §4.1.1, §5.1.3, §5.2.3).

A *failure burst* is ``y`` simultaneous disk failures scattered across ``x``
racks.  The paper's heatmaps (Figures 5, 13, 16) sweep ``(x, y)`` and color
each cell with the probability of data loss (PDL).

The engine has two halves:

* :class:`BurstGenerator` samples concrete failed-disk sets: ``x`` racks
  chosen uniformly, one guaranteed failure per affected rack, the remaining
  ``y - x`` failures uniform over the affected racks' other disks.
* Evaluators turn one failed-disk set into a PDL.  Wherever placement is
  clustered the loss condition is deterministic (0/1); wherever placement
  is declustered the evaluator *integrates analytically over the
  pseudorandom stripe placement* (hypergeometric stripe damage, rack-
  selection DP, Poisson-binomial row losses) instead of sampling billions
  of stripes -- a Rao-Blackwellized estimate with far lower variance than
  the paper's direct simulation, at identical semantics.

Averaging evaluator outputs over generator samples gives the heatmap cell.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Protocol

import numpy as np

from ..core.arrays import AnyArray
from ..analysis.combinatorics import (
    hypergeom_tail,
    poisson_binomial_tails,
    rack_selection_hits_pmf_rows,
)
from ..core.config import DatacenterConfig
from ..core.scheme import LRCScheme, MLECScheme, SLECScheme
from ..core.types import Level, Placement
from ..obs import MetricsRegistry, TraceRecorder
from ..runtime import TrialAggregate, TrialContext, TrialRunner
from ..topology.datacenter import DatacenterTopology
from ..topology.pools import pool_runs, summarize_mlec_damage

__all__ = [
    "BurstEvaluator",
    "BurstGenerator",
    "MLECBurstEvaluator",
    "SLECBurstEvaluator",
    "LRCBurstEvaluator",
    "burst_pdl",
    "burst_pdl_stats",
    "burst_pdl_grid",
]


class BurstEvaluator(Protocol):
    """Structural type of the three burst evaluators (MLEC, SLEC, LRC)."""

    scheme: Any

    def pdl_of_bursts(self, failed_disk_ids: AnyArray) -> AnyArray:
        """PDL of each row of a ``(bursts, failures)`` block of failed-disk
        ids; row ``i`` is bit-identical to evaluating that burst alone."""
        ...

    def pdl_of_burst(self, failed_disk_ids: AnyArray) -> float:
        """PDL of one concrete failed-disk set: a one-row
        :meth:`pdl_of_bursts`."""
        ...


class BurstGenerator:
    """Samples failure bursts: ``y`` failed disks across ``x`` racks."""

    def __init__(
        self,
        dc: DatacenterConfig | None = None,
        rng: np.random.Generator | None = None,
        seed: int = 0,
    ) -> None:
        self.dc = dc if dc is not None else DatacenterConfig()
        self.topo = DatacenterTopology(self.dc)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def sample(
        self, failures: int, racks: int, size: int | None = None
    ) -> AnyArray:
        """Failure bursts: the sorted global ids of the failed disks.

        Without ``size`` one burst, shape ``(failures,)``; with it
        ``size`` independent bursts drawn as one block, shape
        ``(size, failures)``, in a few array calls whatever ``size`` is.
        Per burst: ``racks`` distinct racks, the ``racks`` smallest of
        uniform keys; one guaranteed failure per affected rack (otherwise
        it would not be an affected rack); the remainder uniform without
        replacement over the affected racks' other disks.
        """
        if racks < 1 or racks > self.dc.racks:
            raise ValueError(f"racks must be in [1, {self.dc.racks}]")
        if failures < racks:
            raise ValueError("need at least one failure per affected rack")
        dpr = self.dc.disks_per_rack
        if failures > racks * dpr:
            raise ValueError("more failures than disks in the affected racks")
        if size is not None and size < 1:
            raise ValueError(f"size must be positive, got {size}")

        rng = self.rng
        rows = 1 if size is None else size
        keys = rng.random((rows, self.dc.racks))
        chosen = np.argpartition(keys, racks - 1, axis=1)[:, :racks]
        bursts = chosen * dpr + rng.integers(dpr, size=(rows, racks))
        extra_n = failures - racks
        if extra_n:
            # Remaining failures: local indices in [0, racks*(dpr-1)) over
            # the affected racks' disks minus the guaranteed ones, mapped
            # around each rack's guaranteed disk.
            local = _distinct_sorted(rng, racks * (dpr - 1), extra_n, rows)
            rack_idx, slot = np.divmod(local, dpr - 1)
            if rows > 1:  # index each row's racks in the flattened block
                rack_idx += np.arange(0, rows * racks, racks)[:, None]
            first = bursts.ravel()[rack_idx]
            first_slot = first % dpr
            extra = first - first_slot + slot + (slot >= first_slot)
            bursts = np.concatenate((bursts, extra), axis=1)
        bursts.sort(axis=1)
        return bursts[0] if size is None else bursts


#: Floats of uniform keys :func:`_distinct_sorted` holds at once.
_KEY_BLOCK = 1 << 20


@functools.lru_cache(maxsize=1024)
def _distinct_acceptance(population: int, count: int) -> float:
    """P[``count`` uniform draws from ``population`` are distinct]."""
    log_accept = (
        math.lgamma(population + 1)
        - math.lgamma(population - count + 1)
        - count * math.log(population)
    )
    return min(1.0, math.exp(log_accept))  # lgamma rounding can exceed 1


@functools.lru_cache(maxsize=1024)
def _candidate_rows(accept: float, need: int) -> int:
    """Candidate rows that hold ``need`` distinct ones with about three
    sigmas to spare."""
    spare = 3.0 * math.sqrt(need * (1.0 - accept)) + 1.0
    return math.ceil((need + spare) / accept)


def _distinct_sorted(
    rng: np.random.Generator, population: int, count: int, rows: int
) -> AnyArray:
    """``rows`` uniform ``count``-subsets of ``range(population)``, each
    row sorted.

    Sparse subsets draw candidate rows of ``count`` uniform integers and
    keep, in draw order, the first ``rows`` that hold no duplicate: a
    kept row is a uniform draw conditioned on being distinct, i.e. a
    uniform subset, and a row with a duplicate is replaced whole.  Each
    call draws enough candidates that one call almost always suffices,
    because the cost is the call, not the integers.  When the candidates
    would outnumber ``rows * population`` uniform keys, each row takes
    its ``count`` smallest of ``population`` uniform keys instead (in
    row blocks, which consume the stream exactly as one call would).
    What runs depends only on the arguments, so a seeded call is
    repeatable.
    """
    accept = _distinct_acceptance(population, count)
    if accept > 0.0 and _candidate_rows(accept, rows) * count < rows * population:
        parts = []
        need = rows
        while need > 0:
            candidates = rng.integers(
                population, size=(_candidate_rows(accept, need), count)
            )
            candidates.sort(axis=1)
            distinct = candidates[:, 1:] != candidates[:, :-1]
            if distinct[:need].all():  # the common case for a few rows
                parts.append(candidates[:need])
            else:
                parts.append(candidates[distinct.all(axis=1)][:need])
            need -= len(parts[-1])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    out = np.empty((rows, count), dtype=np.int64)
    step = max(1, _KEY_BLOCK // population)
    for lo in range(0, rows, step):
        keys = rng.random((min(step, rows - lo), population))
        out[lo:lo + step] = np.argpartition(keys, count - 1, axis=1)[:, :count]
    out.sort(axis=1)
    return out


# ----------------------------------------------------------------------
# Rows building blocks shared by the evaluators
# ----------------------------------------------------------------------
class _RowsEvaluator:
    """Base of the burst evaluators: :meth:`pdl_of_bursts` is each
    scheme's one implementation, and :meth:`pdl_of_burst` its one-row
    call."""

    def pdl_of_bursts(self, failed_disk_ids: AnyArray) -> AnyArray:
        raise NotImplementedError

    def pdl_of_burst(self, failed_disk_ids: AnyArray) -> float:
        """Probability this burst loses data, integrating over placement:
        a one-row :meth:`pdl_of_bursts`."""
        block = np.asarray(failed_disk_ids).reshape(1, -1)
        return float(self.pdl_of_bursts(block)[0])


def _as_block(failed_disk_ids: AnyArray) -> AnyArray:
    block = np.asarray(failed_disk_ids)
    if block.ndim != 2:
        raise ValueError("failed_disk_ids must be 2-D (one row per burst)")
    return block


def _hypergeom_tails(pool: int, failed: AnyArray, width: int, p: int) -> AnyArray:
    """:func:`hypergeom_tail` of each failed-disk count in ``failed`` (any
    shape), one memoized call per distinct count."""
    counts, inverse = np.unique(failed, return_inverse=True)
    table = np.array([hypergeom_tail(pool, c, width, p) for c in counts.tolist()])
    return table[inverse].reshape(np.shape(failed))


def _any_pool_over(pool_ids: AnyArray, limit: int) -> AnyArray:
    """Per row of ``(bursts, failures)`` pool ids: does some pool hold more
    than ``limit`` of the failures?  Run lengths over each sorted row:
    exact integer arithmetic, memory linear in the failures."""
    rows, _pools, counts = pool_runs(pool_ids)
    over = np.zeros(len(pool_ids), dtype=bool)
    over[rows[counts > limit]] = True
    return over


def _stripe_loss_rows(
    n_rows: int, row_of: AnyArray, q: AnyArray, stripes: int
) -> AnyArray:
    """Per row, P[some stripe is lost] when each of the row's groups loses
    each of its ``stripes`` stripes with probability ``q``.

    ``row_of`` (ascending) gives each group's row.  A row folds
    ``stripes * log1p(-q)`` over its groups left to right, from ``0.0``,
    and returns ``-expm1`` of the sum; a certain loss (``q >= 1``) makes
    it 1.0.  The fold runs one column per group rank, so every row takes
    the additions a per-row loop would, whatever the other rows hold: a
    padded ``0.0`` leaves a partial sum unchanged, because a sum that
    starts at ``0.0`` is never ``-0.0``.  A row with no groups folds
    nothing and returns ``-0.0``.
    """
    certain = q >= 1.0
    terms = np.zeros(len(q))
    terms[~certain] = stripes * np.log1p(-q[~certain])
    rank = np.arange(len(row_of)) - np.searchsorted(row_of, row_of)
    columns = np.zeros((int(rank.max(initial=-1)) + 1, n_rows))
    columns[rank, row_of] = terms
    no_loss_log = np.zeros(n_rows)
    for column in columns:
        no_loss_log += column
    pdls = -np.expm1(no_loss_log)
    pdls[row_of[certain]] = 1.0
    return pdls


def _any_of_many_rows(q: AnyArray, count: int) -> AnyArray:
    """:func:`~repro.analysis.combinatorics.any_of_many` of each entry of
    ``q``: ``1 - (1 - q)^count``, 0.0 for ``q <= 0`` and 1.0 for
    ``q >= 1``."""
    pdls = np.where(q >= 1.0, 1.0, 0.0)
    mid = (q > 0.0) & (q < 1.0)
    pdls[mid] = -np.expm1(count * np.log1p(-q[mid]))
    return pdls


def _rack_hits(block: AnyArray, dc: DatacenterConfig) -> AnyArray:
    """Each burst's failed disks per rack over the rack size:
    ``(bursts, racks)``, the chance that a disk picked uniformly in the
    rack has failed."""
    n_rows, racks = len(block), dc.racks
    ids = block // dc.disks_per_rack + racks * np.arange(n_rows)[:, None]
    per_rack = np.bincount(ids.ravel(), minlength=n_rows * racks)
    return per_rack.reshape(n_rows, racks) / dc.disks_per_rack


# ----------------------------------------------------------------------
# MLEC evaluator
# ----------------------------------------------------------------------
class MLECBurstEvaluator(_RowsEvaluator):
    """PDL of bursts under an MLEC scheme (Figure 5's cell values)."""

    def __init__(self, scheme: MLECScheme) -> None:
        self.scheme = scheme
        self.topo = DatacenterTopology(scheme.dc)
        self._stripes_per_pool = scheme.local_stripes_per_pool()
        self._network_stripes = scheme.network_stripes_total()

    def _lost_stripe_probs(self, failed_in_pool: AnyArray) -> AnyArray:
        """P[a local stripe of a catastrophic pool is lost], per pool
        (any array shape)."""
        s = self.scheme
        if s.local_placement is Placement.CLUSTERED:
            return np.ones(failed_in_pool.shape)  # a Cp pool *is* one stripe wide
        return _hypergeom_tails(
            s.local_pool_disks, failed_in_pool, s.params.n_l, s.params.p_l
        )

    def pdl_of_bursts(self, failed_disk_ids: AnyArray) -> AnyArray:
        """PDL of each row of a ``(bursts, failures)`` block of failed-disk
        ids (in any order within a row), integrating over placement.

        Row ``i`` is bit-identical to evaluating that burst alone: every
        float takes the same operations in the same order as a one-row
        call, whatever the other rows hold.
        """
        s = self.scheme
        block = _as_block(failed_disk_ids)
        pdls = np.zeros(len(block))
        damage = summarize_mlec_damage(s, block, self.topo)
        burst_of = damage.catastrophic_rows
        exposed = np.bincount(burst_of, minlength=len(block)) > s.params.p_n
        if not exposed.any():
            return pdls  # no burst reaches p_n+1 lost local stripes anywhere

        keep = exposed[burst_of]
        burst_of = (np.cumsum(exposed) - 1)[burst_of[keep]]  # among exposed
        pools = damage.catastrophic_pools[keep]
        counts = damage.catastrophic_counts[keep]
        n_exposed = int(exposed.sum())
        if s.network_placement is Placement.CLUSTERED:
            pdls[exposed] = self._network_clustered_pdls(
                n_exposed, burst_of, pools, counts
            )
        else:
            pdls[exposed] = self._network_declustered_pdls(
                n_exposed, burst_of, pools // s.local_pools_per_rack, counts
            )
        return pdls

    def _network_clustered_pdls(
        self, n_bursts: int, burst_of: AnyArray, pools: AnyArray,
        counts: AnyArray,
    ) -> AnyArray:
        """Network pools are (rack group, pool position); only pools at the
        same position within the same group share network stripes.

        The catastrophic ``pools`` arrive in (burst, pool) order.  Each
        co-stripe group (burst, key) of at least ``p_n + 1`` pools loses a
        network stripe with a Poisson-binomial tail over its pools in pool
        order, and a burst folds its groups in key order
        (:func:`_stripe_loss_rows`).  A burst with no shared group folds
        nothing: the -0.0 the per-burst loop returned for it.
        Lost-stripe probabilities are looked up for those groups' pools
        only, so a scheme whose bursts never share a group never loads
        the hypergeometric machinery.
        """
        s = self.scheme
        loss_threshold = s.params.p_n + 1
        per_rack = s.local_pools_per_rack
        keys = (pools // per_rack // s.network_group_racks) * per_rack + (
            pools % per_rack
        )
        group_ids = burst_of * (int(keys.max()) + 1) + keys
        order = np.argsort(group_ids, kind="stable")
        group_ids, counts, burst_of = group_ids[order], counts[order], burst_of[order]
        starts = np.flatnonzero(np.diff(group_ids, prepend=-1))
        sizes = np.diff(starts, append=len(order))
        shared = sizes >= loss_threshold
        starts, sizes = starts[shared], sizes[shared]

        q_net = np.empty(len(starts))
        for size in np.unique(sizes).tolist():
            sel = sizes == size
            lost = self._lost_stripe_probs(counts[starts[sel, None] + np.arange(size)])
            q_net[sel] = poisson_binomial_tails(lost, loss_threshold)
        return _stripe_loss_rows(
            n_bursts, burst_of[starts], q_net, self._stripes_per_pool
        )

    def _network_declustered_pdls(
        self, n_bursts: int, burst_of: AnyArray, racks: AnyArray,
        counts: AnyArray,
    ) -> AnyArray:
        """Network declustered: one big pool; a network stripe picks n_n
        distinct racks, then a pool position uniformly in each rack.  A
        "hit" is "the stripe's row in this rack landed on a catastrophic
        pool and its local stripe is lost"; a rack's hit probability adds
        its pools' shares in pool order.  A rack whose every pool is lost
        sums to just over 1.0 (48 x 1/48 is 1.0000000000000007), so the
        sum is clamped at 1.0.
        """
        s = self.scheme
        hit = np.zeros((n_bursts, s.dc.racks))
        per_pool = 1.0 / s.local_pools_per_rack
        np.add.at(hit, (burst_of, racks), per_pool * self._lost_stripe_probs(counts))
        np.minimum(hit, 1.0, out=hit)
        pmf = rack_selection_hits_pmf_rows(hit, s.params.n_n, s.params.p_n + 1)
        return _any_of_many_rows(pmf[:, -1], self._network_stripes)


# ----------------------------------------------------------------------
# SLEC evaluator
# ----------------------------------------------------------------------
class SLECBurstEvaluator(_RowsEvaluator):
    """PDL of bursts under a SLEC placement (Figure 13's cell values).

    A burst of at most ``p`` failures never loses data.  Clustered
    placements lose data exactly when some pool holds more than ``p``
    failures.  Local-Dp pools are enclosures with hypergeometric stripe
    damage; Network-Dp stripes pick ``n`` distinct racks and one disk in
    each (the rack-selection DP).
    """

    def __init__(self, scheme: SLECScheme) -> None:
        self.scheme = scheme
        self.topo = DatacenterTopology(scheme.dc)
        dc = scheme.dc
        self._total_stripes = dc.total_disks * dc.chunks_per_disk // scheme.params.n

    def pdl_of_bursts(self, failed_disk_ids: AnyArray) -> AnyArray:
        """PDL of each row of a ``(bursts, failures)`` block of failed-disk
        ids (in any order within a row); row ``i`` is bit-identical to
        evaluating that burst alone."""
        s = self.scheme
        p = s.params.p
        block = _as_block(failed_disk_ids)
        if block.shape[1] <= p:
            return np.zeros(len(block))

        if s.level is Level.LOCAL:
            if s.placement is Placement.CLUSTERED:
                pools = self.topo.clustered_pool_of(block, s.params.n)
                return _any_pool_over(pools, p).astype(float)
            return self._local_declustered_pdls(block)

        if s.placement is Placement.CLUSTERED:
            # Network-Cp: a pool is the set of disks at the same in-rack
            # position across a group of k+p racks.
            groups = self.topo.rack_of(block) // s.params.n
            keys = groups * s.dc.disks_per_rack + self.topo.position_in_rack_of(block)
            return _any_pool_over(keys, p).astype(float)

        # Network-Dp: a stripe picks n distinct racks and one disk in each.
        pmf = rack_selection_hits_pmf_rows(_rack_hits(block, s.dc), s.params.n, p + 1)
        return _any_of_many_rows(pmf[:, -1], self._total_stripes)

    def _local_declustered_pdls(self, block: AnyArray) -> AnyArray:
        """Local-Dp: a pool per enclosure.  Each pool with more than ``p``
        failures loses each of its stripes with a hypergeometric tail,
        folded over a burst's pools in pool order; a burst with no such
        pool is ``0.0``."""
        s = self.scheme
        p = s.params.p
        rows, _pools, counts = pool_runs(self.topo.enclosure_of(block))
        over = counts > p
        rows, counts = rows[over], counts[over]
        pool_disks = s.dc.disks_per_enclosure
        stripes_per_pool = pool_disks * s.dc.chunks_per_disk // s.params.n
        q = _hypergeom_tails(pool_disks, counts, s.params.n, p)
        exposed = np.zeros(len(block), dtype=bool)
        exposed[rows] = True
        loss = _stripe_loss_rows(len(block), rows, q, stripes_per_pool)
        return np.where(exposed, loss, 0.0)


# ----------------------------------------------------------------------
# LRC evaluator
# ----------------------------------------------------------------------
class LRCBurstEvaluator(_RowsEvaluator):
    """PDL of bursts under a declustered LRC (Figure 16's cell values).

    Uses the peeling recoverability criterion: a pattern with ``f_g``
    erasures in each local group (data + its local parity) and ``f_free``
    erased global parities is unrecoverable iff
    ``sum_g max(0, f_g - 1) + f_free > r``.
    """

    def __init__(self, scheme: LRCScheme) -> None:
        self.scheme = scheme
        self.topo = DatacenterTopology(scheme.dc)
        dc = scheme.dc
        self._total_stripes = dc.total_disks * dc.chunks_per_disk // scheme.params.n
        self._unrec_fraction = self._unrecoverable_fraction_by_size()

    def _unrecoverable_fraction_by_size(self) -> AnyArray:
        """U[m] = fraction of m-subsets of stripe positions unrecoverable."""
        from math import comb

        p = self.scheme.params
        group_cells = p.group_size + 1  # data chunks + local parity
        n = p.n
        # ways[m] over all erasure patterns; bad[m] over unrecoverable ones.
        # Enumerate with a DP over groups then the global-parity cell.
        # State: (pattern size, peeling residual capped at r+1).
        cap = p.r + 1
        dp = np.zeros((n + 1, cap + 1))
        dp[0, 0] = 1.0
        for _g in range(p.l):
            new = np.zeros_like(dp)
            for f_g in range(group_cells + 1):
                w = comb(group_cells, f_g)
                resid = min(max(0, f_g - 1), cap)
                src = dp[: n + 1 - f_g]
                shifted = np.zeros_like(src)
                if resid == 0:
                    shifted = src * w
                else:
                    shifted[:, resid:] = src[:, :-resid] * w
                    shifted[:, -1:] += src[:, -resid:].sum(axis=1, keepdims=True) * w
                new[f_g:] += shifted
            dp = new
        # Global parities: each erased global parity adds 1 to the residual.
        new = np.zeros_like(dp)
        for f_free in range(p.r + 1):
            w = comb(p.r, f_free)
            resid = min(f_free, cap)
            src = dp[: n + 1 - f_free]
            shifted = np.zeros_like(src)
            if resid == 0:
                shifted = src * w
            else:
                shifted[:, resid:] = src[:, :-resid] * w
                shifted[:, -1:] += src[:, -resid:].sum(axis=1, keepdims=True) * w
            new[f_free:] += shifted
        dp = new
        bad = dp[:, cap]  # residual > r
        totals = np.array([comb(n, m) for m in range(n + 1)], dtype=float)
        return bad / totals

    def pdl_of_bursts(self, failed_disk_ids: AnyArray) -> AnyArray:
        """PDL of each row of a ``(bursts, failures)`` block of failed-disk
        ids; row ``i`` is bit-identical to evaluating that burst alone.

        A stripe picks ``n`` distinct racks and one disk in each; its
        erasure count has the rack-selection pmf, and ``q = pmf . U`` is
        P[the stripe is unrecoverable].  Each row's product is its own
        ``np.dot``, so its summation order never depends on the block.
        """
        s = self.scheme
        n = s.params.n
        block = _as_block(failed_disk_ids)
        pmf = rack_selection_hits_pmf_rows(_rack_hits(block, s.dc), n, n)
        unrec = self._unrec_fraction[: n + 1]
        q = np.array([np.dot(row, unrec) for row in pmf], dtype=float)
        return _any_of_many_rows(q, self._total_stripes)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _burst_trial(
    ctx: TrialContext,
    evaluator: BurstEvaluator,
    failures: int,
    racks: int,
    dc: DatacenterConfig,
) -> float:
    """One Monte Carlo trial: sample a burst, evaluate its PDL."""
    gen = BurstGenerator(dc, ctx.rng())
    pdl = evaluator.pdl_of_burst(gen.sample(failures, racks))
    if ctx.metrics is not None:
        ctx.metrics.counter("burst.trials").inc()
        ctx.metrics.counter("burst.loss_trials").inc(int(pdl > 0.0))
    if ctx.trace is not None:
        ctx.trace.event(
            0.0, "burst.trial", failures=failures, racks=racks, pdl=float(pdl)
        )
    return pdl


def burst_pdl_stats(
    evaluator: BurstEvaluator,
    failures: int,
    racks: int,
    trials: int = 100,
    seed: int = 0,
    dc: DatacenterConfig | None = None,
    runner: TrialRunner | None = None,
    metrics: MetricsRegistry | None = None,
    trace: TraceRecorder | None = None,
    batch: str = "auto",
) -> TrialAggregate:
    """Monte-Carlo PDL with confidence interval, fanned out over a runner.

    Trial ``i`` draws from the sweep's stream ``i`` (see
    :class:`~repro.runtime.TrialContext`), so the aggregate -- and any
    ``metrics``/``trace`` telemetry -- is bitwise identical for any
    worker count.
    Passing a :class:`~repro.runtime.ResilientRunner` adds chunk-level
    checkpointing, retry, and resume with the same determinism guarantee.
    ``batch`` configures the vectorized batch engine when this function
    constructs its own runner (a speed knob only -- results are
    bit-identical in every mode); a caller-provided ``runner`` keeps its
    own setting.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    runner = runner if runner is not None else TrialRunner(batch=batch)
    dc = dc if dc is not None else evaluator.scheme.dc
    return runner.run(
        _burst_trial,
        trials,
        seed=seed,
        args=(evaluator, failures, racks, dc),
        metrics=metrics,
        trace=trace,
    )


def burst_pdl(
    evaluator: BurstEvaluator,
    failures: int,
    racks: int,
    trials: int = 100,
    rng: np.random.Generator | None = None,
    dc: DatacenterConfig | None = None,
    seed: int = 0,
    runner: TrialRunner | None = None,
) -> float:
    """Monte-Carlo PDL for one burst scenario (one heatmap cell).

    With ``rng`` the trials are one block drawn from the caller's shared
    stream (lets one generator thread through several cells).
    Without it, trials run through ``runner`` on per-trial streams --
    deterministic for any worker count.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if rng is not None:
        gen = BurstGenerator(dc if dc is not None else evaluator.scheme.dc, rng)
        return _block_mean(evaluator, gen, failures, racks, trials)
    return burst_pdl_stats(
        evaluator, failures, racks, trials, seed=seed, dc=dc, runner=runner
    ).mean


def _block_mean(
    evaluator: BurstEvaluator,
    gen: BurstGenerator,
    failures: int,
    racks: int,
    trials: int,
) -> float:
    """Mean PDL of ``trials`` bursts drawn from ``gen`` as one block and
    evaluated as one block.  The PDLs fold left in burst order
    (``total += pdl``): neither ``sum`` (compensated on Python 3.12) nor
    ``np.sum`` (pairwise) adds in that order."""
    total = 0.0
    block = gen.sample(failures, racks, size=trials)
    for pdl in evaluator.pdl_of_bursts(block).tolist():
        total += pdl
    return total / trials


def _grid_cell_trial(
    ctx: TrialContext,
    cells: tuple[tuple[int, int, int, int], ...],
    evaluator: BurstEvaluator,
    trials: int,
    dc: DatacenterConfig,
) -> float:
    """One heatmap cell: ``trials`` bursts on the cell's private stream."""
    _i, _j, failures, racks = cells[ctx.index]
    gen = BurstGenerator(dc, ctx.rng())
    return _block_mean(evaluator, gen, failures, racks, trials)


def burst_pdl_grid(
    evaluator: BurstEvaluator,
    failure_counts: AnyArray,
    rack_counts: AnyArray,
    trials: int = 100,
    seed: int = 0,
    runner: TrialRunner | None = None,
    workers: int = 1,
) -> AnyArray:
    """A full heatmap: PDL[i, j] for failures[i] x racks[j].

    Cells with fewer failures than affected racks are impossible and
    reported as NaN (the paper's figures leave them blank).  The feasible
    cells run as trials of a runner, one stream per cell, so the
    grid is bitwise identical for any worker count.  Each cell draws and
    evaluates its bursts as one block, so a cell has no batch form.
    Without a ``runner`` one is built from ``workers``; a caller-provided
    ``runner`` keeps its own settings.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if runner is None:
        runner = TrialRunner(workers=workers)
    failure_counts = np.asarray(failure_counts)
    rack_counts = np.asarray(rack_counts)
    grid = np.full((len(failure_counts), len(rack_counts)), np.nan)
    cells = tuple(
        (i, j, int(y), int(x))
        for j, x in enumerate(rack_counts)
        for i, y in enumerate(failure_counts)
        if y >= x
    )
    if not cells:
        return grid
    values = runner.map(
        _grid_cell_trial,
        len(cells),
        seed=seed,
        args=(cells, evaluator, trials, evaluator.scheme.dc),
    )
    for (i, j, _y, _x), value in zip(cells, values):
        grid[i, j] = value
    return grid
