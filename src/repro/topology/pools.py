"""Pool bookkeeping: vectorized damage aggregation over failed-disk sets.

The burst engine's inner loop is "given these failed disk ids, which local
pools are catastrophic and where are they?".  These helpers answer it for
a whole block of bursts at once, from run lengths over each burst's
sorted pool ids: memory grows with the failed disks, never with the
number of pools, and a burst costs microseconds, not milliseconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.arrays import AnyArray
from ..core.scheme import MLECScheme
from ..core.types import Placement
from .datacenter import DatacenterTopology

__all__ = [
    "PoolDamageSummary",
    "pool_failure_counts",
    "pool_runs",
    "summarize_mlec_damage",
]


def pool_runs(pool_ids: AnyArray) -> tuple[AnyArray, AnyArray, AnyArray]:
    """Per-row failure counts of a block of bursts' pool ids.

    ``pool_ids`` is ``(bursts, failures)``: the pool of each failed disk.
    Returns ``(rows, pools, counts)``, one entry per (burst, pool) with
    at least one failure, in burst order and ascending pool order within
    a burst.  Rows are sorted first unless they already ascend (as
    :meth:`~repro.sim.burst.BurstGenerator.sample` returns them);
    counting runs of equal ids then costs O(bursts x failures) whatever
    the number of pools.
    """
    ids = np.asarray(pool_ids)
    if ids.ndim != 2:
        raise ValueError("pool_ids must be 2-D (one row per burst)")
    n_rows, width = ids.shape
    if width == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if (ids[:, 1:] < ids[:, :-1]).any():
        ids = np.sort(ids, axis=1)
    starts_run = np.ones(ids.shape, dtype=bool)
    np.not_equal(ids[:, 1:], ids[:, :-1], out=starts_run[:, 1:])
    starts = np.flatnonzero(starts_run)
    counts = np.diff(starts, append=ids.size)
    return starts // width, ids.ravel()[starts], counts


def pool_failure_counts(pool_ids: AnyArray) -> tuple[AnyArray, AnyArray]:
    """Aggregate per-pool failure counts from one burst's per-disk pool ids.

    Returns ``(pools, counts)`` for pools with at least one failure,
    pools ascending.
    """
    _rows, pools, counts = pool_runs(np.asarray(pool_ids).reshape(1, -1))
    return pools, counts


@dataclasses.dataclass(frozen=True)
class PoolDamageSummary:
    """Damage to the local pools of an MLEC scheme after failure bursts.

    Every array attribute is aligned with ``pools``.

    Attributes
    ----------
    rows:
        Burst of each pool: its row in a block of bursts, 0 for one burst.
    pools:
        Global ids of local pools with at least one failed disk,
        ascending within each burst.
    counts:
        Failed-disk count per pool.
    catastrophic:
        Boolean mask over ``pools``: more than ``p_l`` failed disks.
    pools_per_rack:
        Local pools per rack, which places a pool id in its rack.
    """

    rows: AnyArray
    pools: AnyArray
    counts: AnyArray
    catastrophic: AnyArray
    pools_per_rack: int

    @property
    def racks(self) -> AnyArray:
        """Rack index of each pool."""
        return self.pools // self.pools_per_rack

    @property
    def positions(self) -> AnyArray:
        """Pool position within its rack, 0..local_pools_per_rack-1.
        Network-Cp pools are formed from equal positions across a group."""
        return self.pools % self.pools_per_rack

    @property
    def catastrophic_rows(self) -> AnyArray:
        return self.rows[self.catastrophic]

    @property
    def catastrophic_pools(self) -> AnyArray:
        return self.pools[self.catastrophic]

    @property
    def catastrophic_counts(self) -> AnyArray:
        return self.counts[self.catastrophic]

    @property
    def catastrophic_racks(self) -> AnyArray:
        return self.catastrophic_pools // self.pools_per_rack

    @property
    def catastrophic_positions(self) -> AnyArray:
        return self.catastrophic_pools % self.pools_per_rack

    @property
    def n_catastrophic(self) -> int:
        """Catastrophic pools over all bursts."""
        return int(self.catastrophic.sum())


def summarize_mlec_damage(
    scheme: MLECScheme,
    failed_disk_ids: AnyArray,
    topo: DatacenterTopology | None = None,
) -> PoolDamageSummary:
    """Aggregate failed-disk sets into per-local-pool damage for a scheme.

    ``failed_disk_ids`` is one burst (1-D) or a block of bursts, one per
    row (2-D).  Works for both local placements: clustered pools are
    consecutive ``k_l+p_l``-disk runs, declustered pools are whole
    enclosures.
    """
    if topo is None:
        topo = DatacenterTopology(scheme.dc)
    failed = np.asarray(failed_disk_ids)
    if failed.ndim not in (1, 2):
        raise ValueError("failed_disk_ids must be one burst or a 2-D block")
    if scheme.local_placement is Placement.CLUSTERED:
        pool_of_disk = topo.clustered_pool_of(failed, scheme.params.n_l)
    else:
        pool_of_disk = topo.enclosure_of(failed)

    rows, pools, counts = pool_runs(np.atleast_2d(pool_of_disk))
    return PoolDamageSummary(
        rows=rows,
        pools=pools,
        counts=counts,
        catastrophic=counts > scheme.params.p_l,
        pools_per_rack=scheme.local_pools_per_rack,
    )
